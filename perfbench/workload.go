package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"dharma"
	"dharma/internal/dataset"
	"dharma/internal/loadgen"
)

// spec describes one workload: the fleet it runs on and the shape of
// the operation sequence generated from the seed.
type spec struct {
	Name string

	UDP         bool // real UDP peers on loopback instead of the simnet
	Nodes       int
	Replication int
	Mode        dharma.Mode
	K           int
	CacheBlocks int  // per-peer read cache (0 = off)
	Durable     bool // WAL-backed node stores under the run's data directory
	NoFsync     bool

	// Data is the internal/dataset preset the annotation trace comes
	// from; the run's seed becomes its Seed.
	Data func(seed int64) dataset.Config
	// Preload is how many trace annotations make up the catalogue:
	// set-up maps them offline through a local DHARMA engine in the
	// workload's mode and copies the resulting blocks into the replicas,
	// so the measured phase starts from a mature folksonomy.
	Preload int
	// HotPrefill mirrors internal/loadgen's HotPrefill: the t̄ blocks of
	// the hotTags most used catalogue tags each receive HotPrefill extra
	// resource entries at set-up.
	HotPrefill int
	// Mix weighs the measured operations as internal/loadgen's named
	// mixes do. Insert+Tag replays the trace in order: an annotation on
	// a resource not seen yet is an InsertResource, any other a Tag.
	// With Insert 0, annotations on unseen resources are skipped.
	Mix loadgen.Mix
	// OwnerPeers issues every write on resource r from one fixed peer
	// (a hash of r), so a peer's cached r̄ is never stale when it tags r.
	OwnerPeers bool
	Warmup     int // ops of the mixed stream run after set-up, before timing
	Round      int // ops per round; a run executes whole rounds
	MaxRate    int // generous ops/s ceiling that sizes the generated sequence
}

const (
	// hotTags is how many tags HotPrefill inflates, as loadgen's
	// hotPrefillTags.
	hotTags = 4
	// navMaxSteps bounds every Navigate walk.
	navMaxSteps = 6
)

// fleetSeed fixes node identities, engine sampling seeds and the
// certificate authority's keys. The fleet is a deployment constant;
// only the operation sequence depends on --seed.
const fleetSeed = 7

var workloads = map[string]spec{
	// Read-heavy browsing of a mature catalogue with hot blocks:
	// FIND_VALUE with index-side filtering, dht.Cached and search; the
	// control for write-path and transport changes.
	"browse-hot": {
		Name:  "browse-hot",
		Nodes: 32, Replication: 8, Mode: dharma.Approximated, K: 5, CacheBlocks: 64,
		Data: dataset.Small, Preload: 20000, HotPrefill: 10000,
		Mix:        loadgen.HotTag,
		OwnerPeers: true,
		Warmup:     1000, Round: 100, MaxRate: 4000,
	},
	// Annotation replay on durable nodes: the 4+k Tag fan-out,
	// AppendBatch, replica STOREs and the WAL. Resources carry many tags,
	// so Approximation A's sampling engages.
	"annotate-durable": {
		Name:  "annotate-durable",
		Nodes: 16, Replication: 8, Mode: dharma.Approximated, K: 5, Durable: true, NoFsync: true,
		Data: dataset.LastFMScaled, Preload: 20000,
		Mix:    loadgen.TagHeavy,
		Warmup: 1000, Round: 100, MaxRate: 2000,
	},
	// The only workload whose RPCs cross the codec, sockets, session MACs
	// and deadline stamping; the control for simnet-only changes.
	"mixed-udp": {
		Name: "mixed-udp",
		UDP:  true, Nodes: 8, Replication: 4, Mode: dharma.Approximated, K: 5,
		Data: dataset.Small, Preload: 20000,
		Mix:    loadgen.Mixed,
		Warmup: 1000, Round: 100, MaxRate: 1500,
	},
}

// workloadNames lists the workloads in a stable order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type opKind uint8

const (
	opInsert opKind = iota
	opTag
	opStep
	opNav
	numKinds
)

func (k opKind) String() string {
	return [...]string{"insert", "tag", "step", "navigate"}[k]
}

// op is one facade operation of the generated sequence.
type op struct {
	kind opKind
	peer int
	r, t string // insert: r with first tag t; tag: (r, t); step/nav: t
	seed int64  // navigate: the Random strategy's seed
}

// prefill is one hot tag's extra t̄ entries: resources pf<tag>-<i>
// with the given annotation counts.
type prefill struct {
	tag    string
	counts []int
}

// plan is everything a run executes, generated from the seed before
// any timing starts.
type plan struct {
	seeded   []op // set-up: the trace prefix, mapped offline and copied in
	prefills []prefill
	warm     []op // set-up: the first ops of the mixed stream, unmeasured
	ops      []op // measured, in whole rounds of spec.Round
}

// generate builds the run's plan from seed. maxOps bounds the measured
// sequence; the run stops earlier when its time is up.
func generate(s spec, seed int64, maxOps int) plan {
	d := dataset.Generate(s.Data(seed))
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))

	var (
		p        plan
		known    = make(map[string]bool)
		pastTags []string // tags of replayed annotations: a popularity-weighted pool
		cursor   int
	)
	peerFor := func(r string) int {
		if s.OwnerPeers {
			h := fnv.New32a()
			h.Write([]byte(r))
			return int(h.Sum32() % uint32(s.Nodes))
		}
		return rng.Intn(s.Nodes)
	}
	// nextTrace turns the next usable annotation into an insert or tag.
	nextTrace := func(allowNew bool) (op, bool) {
		for cursor < len(d.Annotations) {
			a := d.Annotations[cursor]
			cursor++
			if !known[a.Resource] && !allowNew {
				continue
			}
			pastTags = append(pastTags, a.Tag)
			if !known[a.Resource] {
				known[a.Resource] = true
				return op{kind: opInsert, peer: peerFor(a.Resource), r: a.Resource, t: a.Tag}, true
			}
			return op{kind: opTag, peer: peerFor(a.Resource), r: a.Resource, t: a.Tag}, true
		}
		return op{}, false
	}
	// nextOp draws the mixed stream by the mix's weights. Reads name a
	// tag drawn from the annotations replayed so far, so hot tags
	// dominate them as they dominate the trace.
	m := s.Mix
	nextOp := func() (op, bool) {
		switch n := rng.Intn(m.Insert + m.Tag + m.Navigate + m.Search); {
		case n < m.Insert+m.Tag:
			return nextTrace(m.Insert > 0)
		case n < m.Insert+m.Tag+m.Navigate:
			t := pastTags[rng.Intn(len(pastTags))]
			return op{kind: opNav, peer: rng.Intn(s.Nodes), t: t, seed: rng.Int63()}, true
		default:
			return op{kind: opStep, peer: rng.Intn(s.Nodes), t: pastTags[rng.Intn(len(pastTags))]}, true
		}
	}

	for len(p.seeded) < s.Preload {
		o, ok := nextTrace(true)
		if !ok {
			break
		}
		p.seeded = append(p.seeded, o)
	}
	if s.HotPrefill > 0 {
		freq := make(map[string]int)
		for _, t := range pastTags {
			freq[t]++
		}
		hot := make([]string, 0, len(freq))
		for t := range freq {
			hot = append(hot, t)
		}
		sort.Slice(hot, func(i, j int) bool {
			if freq[hot[i]] != freq[hot[j]] {
				return freq[hot[i]] > freq[hot[j]]
			}
			return hot[i] < hot[j]
		})
		for _, t := range hot[:min(hotTags, len(hot))] {
			pf := prefill{tag: t, counts: make([]int, s.HotPrefill)}
			for j := range pf.counts {
				pf.counts[j] = 1 + rng.Intn(4)
			}
			p.prefills = append(p.prefills, pf)
		}
	}
	for len(p.warm) < s.Warmup {
		o, ok := nextOp()
		if !ok {
			break
		}
		p.warm = append(p.warm, o)
	}
	for len(p.ops) < maxOps {
		o, ok := nextOp()
		if !ok {
			break
		}
		p.ops = append(p.ops, o)
	}
	// Whole rounds only.
	p.ops = p.ops[:len(p.ops)/s.Round*s.Round]
	return p
}

// uriOf is the URI a workload publishes for resource r.
func uriOf(r string) string { return fmt.Sprintf("magnet:?xt=urn:bench:%s", r) }

// prefillName names the i-th prefilled resource of tag t.
func prefillName(t string, i int) string { return fmt.Sprintf("pf-%s-%d", t, i) }
