package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dharma"
	"dharma/internal/core"
	"dharma/internal/dht"
	"dharma/internal/kadid"
	"dharma/internal/likir"
	"dharma/internal/obs"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

// fleet is a booted deployment: either a simulated System or a set of
// real-UDP peers, each peer instrumented on its own obs registry.
type fleet struct {
	sys   *dharma.System // nil for UDP fleets
	peers []*dharma.Peer
	regs  []*obs.Registry
	net   *simnet.Network // nil for UDP fleets
	dir   string          // data directory (WAL, identities); removed on close
}

// seededReader adapts a *rand.Rand to io.Reader so key generation is
// reproducible.
type seededReader struct{ r *rand.Rand }

func (s seededReader) Read(p []byte) (int, error) { return s.r.Read(p) }

// bootFleet builds the workload's deployment under dir.
func bootFleet(ctx context.Context, s spec, dir string) (*fleet, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	cfg := dharma.Config{
		Nodes: s.Nodes, Mode: s.Mode, K: s.K, Replication: s.Replication,
		CacheBlocks: s.CacheBlocks, Seed: fleetSeed, NoFsync: s.NoFsync,
	}
	if s.Durable {
		cfg.DataDir = filepath.Join(dir, "data")
	}
	if !s.UDP {
		sys, err := dharma.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		f.sys, f.peers, f.net = sys, sys.Peers(), sys.Network()
		for _, p := range f.peers {
			reg := obs.NewRegistry()
			p.Instrument(reg)
			f.regs = append(f.regs, reg)
		}
		return f, nil
	}

	// Real UDP: a certificate authority on disk, one identity file per
	// peer, every peer requiring authenticated sessions.
	rng := rand.New(rand.NewSource(fleetSeed))
	auth, err := likir.NewAuthority(seededReader{rng}, 24*time.Hour, nil)
	if err != nil {
		return nil, err
	}
	caDir := filepath.Join(dir, "ca")
	if err := auth.SaveCA(caDir); err != nil {
		return nil, err
	}
	var bootstrap []string
	for i := 0; i < s.Nodes; i++ {
		ident, err := auth.Issue(seededReader{rng}, fmt.Sprintf("peer-%d", i))
		if err != nil {
			f.close()
			return nil, err
		}
		idPath := filepath.Join(dir, fmt.Sprintf("peer-%d.id", i))
		if err := ident.Save(idPath); err != nil {
			f.close()
			return nil, err
		}
		pcfg := cfg
		pcfg.Seed = fleetSeed + int64(i) + 1
		reg := obs.NewRegistry()
		p, err := dharma.NewUDPPeer(ctx, dharma.UDPPeerConfig{
			Config:       pcfg,
			Listen:       "127.0.0.1:0",
			Bootstrap:    bootstrap,
			Metrics:      reg,
			IdentityPath: idPath,
			CAPath:       likir.PublicKeyPath(caDir),
			RequireAuth:  true,
		})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("udp peer %d: %w", i, err)
		}
		f.peers = append(f.peers, p)
		f.regs = append(f.regs, reg)
		if i == 0 {
			bootstrap = []string{p.Node.Self().Addr}
		}
	}
	return f, nil
}

// engineSeed is the Approximation-A sampling seed the facade gives
// peer i, so a re-assembled engine samples exactly like the facade's.
func (f *fleet) engineSeed(i int) int64 {
	if f.sys != nil {
		return fleetSeed + int64(i)
	}
	return fleetSeed + int64(i) + 1
}

func (f *fleet) close() {
	if f.sys != nil {
		f.sys.Shutdown()
	} else {
		for _, p := range f.peers {
			p.Close() //nolint:errcheck // tearing down a finished run
		}
	}
	os.RemoveAll(f.dir) //nolint:errcheck // best-effort cleanup of run data
}

// served returns each node's RPCs-served counter.
func (f *fleet) served() []int64 {
	out := make([]int64, len(f.peers))
	for i, p := range f.peers {
		out[i] = p.Node.RPCServed()
	}
	return out
}

// client is what a run drives: one peer's operations plus the counters
// the Table I check reads around each of them.
type client interface {
	InsertResource(ctx context.Context, r, uri string, tags []string) error
	Tag(ctx context.Context, r, t string) error
	SearchStep(ctx context.Context, t string) (related, resources []dharma.Weighted, err error)
	Navigate(ctx context.Context, start string, opt dharma.NavOptions) (dharma.NavResult, error)
	counted
}

// counted is the accounting a client exposes.
type counted interface {
	// Lookups is the peer's block-operation count (Table I units that
	// reached the overlay) and Appends its write share.
	Lookups() int64
	Appends() int64
	// CacheHits and CacheMisses are the read cache's counters (0
	// without a cache).
	CacheHits() int64
	CacheMisses() int64
}

// facadeClient drives a dharma.Peer directly: the untraced path.
type facadeClient struct{ p *dharma.Peer }

func (c facadeClient) InsertResource(ctx context.Context, r, uri string, tags []string) error {
	return c.p.InsertResource(ctx, r, uri, tags)
}
func (c facadeClient) Tag(ctx context.Context, r, t string) error { return c.p.Tag(ctx, r, t) }
func (c facadeClient) SearchStep(ctx context.Context, t string) ([]dharma.Weighted, []dharma.Weighted, error) {
	return c.p.SearchStep(ctx, t)
}
func (c facadeClient) Navigate(ctx context.Context, start string, opt dharma.NavOptions) (dharma.NavResult, error) {
	return c.p.Navigate(ctx, start, dharma.Random, opt)
}
func (c facadeClient) Lookups() int64 { return c.p.Lookups() }
func (c facadeClient) Appends() int64 { return c.p.Stats().Appends }
func (c facadeClient) CacheHits() int64 {
	if c.p.Cache() == nil {
		return 0
	}
	return c.p.Cache().Hits()
}
func (c facadeClient) CacheMisses() int64 {
	if c.p.Cache() == nil {
		return 0
	}
	return c.p.Cache().Misses()
}

// reader builds a cache-free engine over peer i's node for the
// correctness checks: every read is an overlay lookup, so no peer's
// cache can answer in place of the replicas.
func (f *fleet) reader(i int) (*core.Engine, *dht.Overlay) {
	ov := dht.NewOverlay(f.peers[i].Node, f.peers[i].Node.Identity())
	e, _ := core.NewEngine(ov, core.Config{Mode: core.Naive}) // Naive never fails to build
	return e, ov
}

// tbarKey is the overlay key of a t̄ block, for the
// unfiltered t̄ reads of the checks.
func tbarKey(t string) kadid.ID { return core.BlockKey(t, core.BlockTagResources) }

// seedCatalogue maps the trace prefix offline through a local DHARMA
// engine in the workload's mode (dharma.NewLocalEngine: the same engine
// over an in-process block store), adds the hot tags' prefill to their
// t̄ blocks, and copies every resulting block to the replicas that own
// it: the Replication nodes closest to its key, which are the nodes an
// overlay store reaches. The tally records the same operations.
func (f *fleet) seedCatalogue(ctx context.Context, s spec, ops []op, pfs []prefill, t *tally) error {
	eng, local, err := dharma.NewLocalEngine(dharma.Config{Mode: s.Mode, K: s.K, Seed: fleetSeed})
	if err != nil {
		return err
	}
	for _, o := range ops {
		switch o.kind {
		case opInsert:
			err = eng.InsertResource(ctx, o.r, uriOf(o.r), o.t)
			t.insert(o)
		case opTag:
			err = eng.Tag(ctx, o.r, o.t)
			t.tag(o)
		}
		if err != nil {
			return fmt.Errorf("map catalogue: %w", err)
		}
	}
	for _, pf := range pfs {
		entries := make([]wire.Entry, len(pf.counts))
		for i, c := range pf.counts {
			entries[i] = wire.Entry{Field: prefillName(pf.tag, i), Count: uint64(c)}
		}
		if err := local.Append(ctx, tbarKey(pf.tag), entries); err != nil {
			return fmt.Errorf("prefill %s: %w", pf.tag, err)
		}
	}
	t.addPrefill(pfs)

	// Likir peers accept only signed data entries (the URIs).
	signer := f.peers[0].Node.Identity()
	ids := make([]kadid.ID, len(f.peers))
	for i, p := range f.peers {
		ids[i] = p.Node.Self().ID
	}
	batches := make([][]dht.BatchItem, len(f.peers))
	raw := local.Raw()
	for _, key := range raw.Keys() {
		es, _ := raw.Get(key, 0)
		if signer != nil {
			for i, e := range es {
				if len(e.Data) > 0 {
					es[i].Author, es[i].Sig = signer.SignEntry(key, e.Field, e.Data)
				}
			}
		}
		order := make([]int, len(ids))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return kadid.Closer(ids[order[a]], ids[order[b]], key) })
		for _, i := range order[:min(s.Replication, len(order))] {
			batches[i] = append(batches[i], dht.BatchItem{Key: key, Entries: es})
		}
	}
	for i, b := range batches {
		if err := f.peers[i].Node.LocalStore().AppendBatch(ctx, b); err != nil {
			return fmt.Errorf("seed replica %d: %w", i, err)
		}
	}
	return nil
}
