package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"dharma"
	"dharma/internal/dataset"
	"dharma/internal/dht"
	"dharma/internal/kadid"
	"dharma/internal/wire"
)

// Tiny runs use this seed and at most this many measured operations.
const (
	tinySeed = 3
	tinyOps  = 300
)

// tiny shrinks a workload so a run takes a couple of seconds.
func tiny(s spec) spec {
	data := s.Data
	s.Data = func(seed int64) dataset.Config {
		c := data(seed)
		c.Annotations = 4000
		return c
	}
	if s.Preload > 150 {
		s.Preload = 150
	}
	s.HotPrefill /= 100
	s.Warmup = 40
	s.Round = 20
	return s
}

// runTiny runs s at a tiny size; a non-nil wrap (traced runs only)
// sits under each engine's span-recording store.
func runTiny(t *testing.T, s spec, trace bool, wrap func(dht.Store) dht.Store) *result {
	t.Helper()
	res, err := run(context.Background(), s, runConfig{
		seed: tinySeed, seconds: 0.3, trace: trace, dir: t.TempDir(), wrap: wrap, maxOps: tinyOps,
	}, time.Now())
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	return res
}

// Every workload runs at a tiny size, untraced and traced, with no
// failed operation, every check passing and every metric computed.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			s := tiny(workloads[name])
			res := runTiny(t, s, trace, nil)
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					name, trace, res.correct, res.attempted, res.failed, res.problems)
			}
			names := endToEnd
			if trace {
				names = perLayer
			}
			for _, m := range names {
				if _, ok := res.metrics[m]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
				}
			}
		}
	}
}

// In Naive mode DHARMA maintains the exact folksonomy: the mapped FG
// read back through the overlay must equal the theoretic one, so recall
// is 1 and the equality check passes.
func TestNaiveFGEqualsTheory(t *testing.T) {
	s := tiny(workloads["annotate-durable"])
	s.Mode = dharma.Naive
	s.Durable = false
	res := runTiny(t, s, false, nil)
	if !res.correct {
		t.Fatalf("naive run failed its checks: %v", res.problems)
	}
	if got := res.metrics["fg_recall"].Value; got != 1 {
		t.Fatalf("naive fg_recall = %v, want 1", got)
	}
}

// dropReverse is a faulty store that silently drops the first item of
// every reverse-arc batch: the batch a Tag issues for its (τ,t) arcs,
// whose items all carry the one entry t.
type dropReverse struct{ dht.Store }

func (s dropReverse) AppendBatch(ctx context.Context, items []dht.BatchItem) error {
	reverse := len(items) > 0
	for _, it := range items {
		if len(it.Entries) != 1 || it.Entries[0].Field != items[0].Entries[0].Field {
			reverse = false
			break
		}
	}
	if reverse {
		items = items[1:]
		if len(items) == 0 {
			return nil
		}
	}
	return s.Store.AppendBatch(ctx, items)
}

// doubleTbar is a faulty store that applies every single append to a
// t̄ block twice.
type doubleTbar struct {
	dht.Store
	tbar map[kadid.ID]bool
}

func (s doubleTbar) Append(ctx context.Context, key kadid.ID, entries []wire.Entry) error {
	if s.tbar[key] {
		if err := s.Store.Append(ctx, key, entries); err != nil {
			return err
		}
	}
	return s.Store.Append(ctx, key, entries)
}

// tbarKeys are the t̄ block keys of every tag a tiny run of s names.
func tbarKeys(s spec) map[kadid.ID]bool {
	p := generate(s, tinySeed, tinyOps)
	keys := make(map[kadid.ID]bool)
	for _, ops := range [][]op{p.seeded, p.warm, p.ops} {
		for _, o := range ops {
			keys[tbarKey(o.t)] = true
		}
	}
	return keys
}

// A store that drops a reverse-arc append or doubles a t̄ append must
// be caught by the checks.
func TestChecksRejectInjectedFaults(t *testing.T) {
	base := tiny(workloads["annotate-durable"])
	base.Durable = false
	tbar := tbarKeys(base)
	cases := []struct {
		name string
		wrap func(dht.Store) dht.Store
		mode dharma.Mode
		want string // a problem message must contain this
	}{
		{"drop-reverse", func(s dht.Store) dht.Store { return dropReverse{s} }, dharma.Approximated, "Table I"},
		{"drop-reverse-naive", func(s dht.Store) dht.Store { return dropReverse{s} }, dharma.Naive, "Naive FG"},
		{"double-tbar", func(s dht.Store) dht.Store { return doubleTbar{s, tbar} }, dharma.Approximated, "t̄ of"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := base
			s.Mode = c.mode
			res := runTiny(t, s, true, c.wrap)
			if res.correct {
				t.Fatalf("fault %s passed every check", c.name)
			}
			found := false
			for _, p := range res.problems {
				if strings.Contains(p, c.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("fault %s: no problem mentions %q: %v", c.name, c.want, res.problems)
			}
		})
	}
}
