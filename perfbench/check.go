package main

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"dharma"
	"dharma/internal/core"
	"dharma/internal/folksonomy"
)

// tally is the benchmark's own record of what the program was asked to
// do, kept apart from the program: the log of applied writes, the
// u(t,r) counts it gives, the URIs published and the prefilled t̄
// entries. It holds no more than the Table I check needs while the run
// is measured; the theoretic folksonomy is rebuilt from the log only
// when the checks run, after the heap has been read.
type tally struct {
	u       map[string]map[string]int // r → t → u(t,r)
	uri     map[string]string
	extra   map[string]map[string]int // prefill: t → r → count
	log     []op                      // applied inserts and tags, in order
	naiveFG bool                      // Naive mode: the mapped FG must equal the theoretic one
}

func newTally(mode dharma.Mode) *tally {
	return &tally{
		u: make(map[string]map[string]int), uri: make(map[string]string),
		extra: make(map[string]map[string]int), naiveFG: mode == dharma.Naive,
	}
}

// insert records r's insertion with its first tag t.
func (t *tally) insert(o op) {
	t.u[o.r] = map[string]int{o.t: 1}
	t.uri[o.r] = uriOf(o.r)
	t.log = append(t.log, o)
}

func (t *tally) tag(o op) {
	t.u[o.r][o.t]++
	t.log = append(t.log, o)
}

// theory replays the log through the theoretic maintenance rules.
func (t *tally) theory() *folksonomy.Graph {
	g := folksonomy.New()
	for _, o := range t.log {
		if o.kind == opInsert {
			g.InsertResource(o.r, uriOf(o.r), o.t) //nolint:errcheck // r is new: the generator inserts each resource once
		} else {
			g.Tag(o.r, o.t) //nolint:errcheck // r exists: tags follow the resource's insert
		}
	}
	return g
}

func (t *tally) addPrefill(pfs []prefill) {
	for _, pf := range pfs {
		m := make(map[string]int, len(pf.counts))
		for i, c := range pf.counts {
			m[prefillName(pf.tag, i)] = c
		}
		t.extra[pf.tag] = m
	}
}

// cost is the Table I block-operation count of o on the current state:
// 2+2m per insert, 4+min(K, |Tags(r)∖{t}|) per tag (4+|Tags(r)∖{t}| in
// Naive mode), 2 per search step, 2 per walk step.
func (t *tally) cost(s spec, o op, walkSteps int) int {
	switch o.kind {
	case opInsert:
		return 2 + 2*1 // the trace inserts a resource with its first tag: m = 1
	case opTag:
		others := len(t.u[o.r])
		if t.u[o.r][o.t] > 0 {
			others--
		}
		if s.Mode == dharma.Approximated && others > s.K {
			others = s.K
		}
		return 4 + others
	case opStep:
		return 2
	default:
		return 2 * walkSteps
	}
}

// checkResult is the outcome of the read-back checks.
type checkResult struct {
	problems []string
	fgRecall float64
	reads    int
}

func (c *checkResult) fail(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// verify reads the TRG, the FG and the URIs back through the overlay,
// with cache-free engines spread over the fleet's peers, and compares
// them with the tally:
//   - r̄ of every resource equals its u(·,r) counts;
//   - unfiltered t̄ of every tag equals u(t,·) plus the prefill;
//   - every mapped FG arc is in the theoretic FG with no larger weight
//     (equal FGs in Naive mode);
//   - ResolveURI returns every published URI.
func verify(ctx context.Context, f *fleet, t *tally) checkResult {
	var res checkResult
	var mu sync.Mutex
	fail := func(format string, args ...any) {
		mu.Lock()
		res.fail(format, args...)
		mu.Unlock()
	}

	// The inverse tally: t → r → u(t,r), plus the prefill.
	inv := make(map[string]map[string]int)
	for r, m := range t.u {
		for tg, n := range m {
			if inv[tg] == nil {
				inv[tg] = make(map[string]int)
			}
			inv[tg][r] = n
		}
	}
	for tg, m := range t.extra {
		if inv[tg] == nil {
			inv[tg] = make(map[string]int)
		}
		for r, n := range m {
			inv[tg][r] += n
		}
	}
	theory := t.theory()
	tags := make([]string, 0, len(inv))
	for tg := range inv {
		tags = append(tags, tg)
	}
	sort.Strings(tags)

	var (
		recallSum float64
		recallN   int
	)
	const workers = 4
	jobs := make(chan func(e *core.Engine, read func(tg string) (map[string]int, error)))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		e, ov := f.reader(w % len(f.peers))
		readTbar := func(tg string) (map[string]int, error) {
			es, err := ov.Get(ctx, tbarKey(tg), 0)
			if err != nil {
				return nil, err
			}
			m := make(map[string]int, len(es))
			for _, en := range es {
				m[en.Field] = int(en.Count)
			}
			return m, nil
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				job(e, readTbar)
			}
		}()
	}
	for _, o := range t.log {
		if o.kind != opInsert {
			continue
		}
		r := o.r
		want := t.u[r]
		jobs <- func(e *core.Engine, _ func(string) (map[string]int, error)) {
			got, err := e.TagsOf(ctx, r)
			if err != nil {
				fail("TagsOf(%s): %v", r, err)
				return
			}
			if !sameCounts(toMap(got), want) {
				fail("r̄ of %s = %v, tally %v", r, toMap(got), want)
			}
			uri, err := e.ResolveURI(ctx, r)
			if err != nil || uri != t.uri[r] {
				fail("ResolveURI(%s) = %q, %v; published %q", r, uri, err, t.uri[r])
			}
		}
	}
	for _, tg := range tags {
		tg := tg
		want := inv[tg]
		theo := toMap(theory.Neighbors(tg))
		jobs <- func(e *core.Engine, readTbar func(string) (map[string]int, error)) {
			got, err := readTbar(tg)
			if err != nil {
				fail("t̄ of %s: %v", tg, err)
			} else if !sameCounts(got, want) {
				fail("t̄ of %s has %d entries, tally %d (or counts differ)", tg, len(got), len(want))
			}
			nb, err := e.Neighbors(ctx, tg)
			if err != nil {
				fail("Neighbors(%s): %v", tg, err)
				return
			}
			mapped := toMap(nb)
			for tau, w := range mapped {
				if tw, ok := theo[tau]; !ok || w > tw {
					fail("FG arc (%s,%s) weight %d not within theoretic %d", tg, tau, w, tw)
				}
			}
			if t.naiveFG && !sameCounts(mapped, theo) {
				fail("Naive FG of %s = %v, theoretic %v", tg, mapped, theo)
			}
			if len(theo) > 0 {
				mu.Lock()
				recallSum += float64(len(mapped)) / float64(len(theo))
				recallN++
				mu.Unlock()
			}
		}
	}
	close(jobs)
	wg.Wait()
	res.reads = 2*len(t.uri) + 2*len(tags)
	if recallN > 0 {
		res.fgRecall = recallSum / float64(recallN)
	}
	return res
}

func toMap(ws []dharma.Weighted) map[string]int {
	m := make(map[string]int, len(ws))
	for _, w := range ws {
		m[w.Name] = w.Weight
	}
	return m
}

func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
