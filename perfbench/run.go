package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dharma"
	"dharma/internal/dht"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string // work directory for data, identities and traces
	maxOps  int    // caps the measured sequence (0 = sized from seconds)
	// wrap, when set, wraps the store under each traced engine (the
	// self-test injects faults with it; needs trace).
	wrap func(dht.Store) dht.Store
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	problems  []string
	notes     []string
}

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// run executes workload s once: set-up, a measured phase of whole
// rounds, counters and the read-back checks.
func run(ctx context.Context, s spec, rc runConfig, processStart time.Time) (*result, error) {
	maxOps := rc.maxOps
	if maxOps == 0 {
		maxOps = int(rc.seconds*float64(s.MaxRate)) + s.Round
	}
	genStart := time.Now()
	p := generate(s, rc.seed, maxOps)
	genTime := time.Since(genStart)
	if len(p.ops) == 0 {
		return nil, fmt.Errorf("%s: generated no measured operations", s.Name)
	}

	f, err := bootFleet(ctx, s, filepath.Join(rc.dir, fmt.Sprintf("fleet-%s-%d", s.Name, os.Getpid())))
	if err != nil {
		return nil, fmt.Errorf("%s: boot: %w", s.Name, err)
	}
	defer f.close()

	var tr *tracer
	clients := make([]client, len(f.peers))
	for i, peer := range f.peers {
		if rc.trace {
			if tr == nil {
				tr = newTracer()
			}
			tc, err := newTracedClient(f, s, i, tr, rc.wrap)
			if err != nil {
				return nil, err
			}
			clients[i] = tc
		} else {
			clients[i] = facadeClient{peer}
		}
	}
	counters := make([]counted, len(clients))
	for i, c := range clients {
		counters[i] = c
	}

	res := &result{metrics: make(map[string]metric)}
	t := newTally(s.Mode)
	var lat [numKinds][]time.Duration // measured latencies per operation kind
	var (
		blockOps  [numKinds]int64
		opCount   [numKinds]int
		walkSteps int
		costBad   int
	)
	exec := func(o op, record bool) error {
		c := clients[o.peer]
		l0, h0 := c.Lookups(), c.CacheHits()
		var (
			err   error
			steps int
		)
		start := time.Now()
		switch o.kind {
		case opInsert:
			err = c.InsertResource(ctx, o.r, uriOf(o.r), []string{o.t})
		case opTag:
			err = c.Tag(ctx, o.r, o.t)
		case opStep:
			_, _, err = c.SearchStep(ctx, o.t)
		case opNav:
			var nr dharma.NavResult
			nr, err = c.Navigate(ctx, o.t, dharma.NavOptions{MaxSteps: navMaxSteps, Rng: newRand(o.seed)})
			steps = len(nr.Path)
		}
		took := time.Since(start)
		if err != nil {
			return err
		}
		used := (c.Lookups() - l0) + (c.CacheHits() - h0)
		if want := int64(t.cost(s, o, steps)); used != want {
			costBad++
			if costBad <= 5 {
				res.problems = append(res.problems, fmt.Sprintf("%s %q/%q used %d block ops, Table I says %d", o.kind, o.r, o.t, used, want))
			}
		}
		switch o.kind {
		case opInsert:
			t.insert(o)
		case opTag:
			t.tag(o)
		}
		if record {
			lat[o.kind] = append(lat[o.kind], took)
			blockOps[o.kind] += used
			opCount[o.kind]++
			walkSteps += steps
		}
		return nil
	}

	// Set-up: catalogue and prefill, then warm-up through the clients.
	if err := f.seedCatalogue(ctx, s, p.seeded, p.prefills, t); err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	warmStart := time.Now()
	for _, o := range p.warm {
		if err := exec(o, false); err != nil {
			return nil, fmt.Errorf("%s: warm-up %s %s/%s: %w", s.Name, o.kind, o.r, o.t, err)
		}
	}

	// Measured phase. A cached block must not outlive the read cache's
	// TTL inside one run, or hit counts would depend on machine speed:
	// with a cache the phase ends before warm-up start + TTL.
	runtime.GC()
	measureStart := time.Now()
	deadline := measureStart.Add(time.Duration(rc.seconds * float64(time.Second)))
	if s.CacheBlocks > 0 {
		if ttlEnd := warmStart.Add(dht.DefaultCacheTTL - time.Second); ttlEnd.Before(deadline) {
			deadline = ttlEnd
			res.notes = append(res.notes, "measured phase cut to stay inside the read-cache TTL")
		}
	}
	// Set-up runs from the process's start to the first measured
	// operation, less the time spent generating the benchmark's inputs.
	setup := measureStart.Sub(processStart) - genTime
	before := takeSnapshot(f, counters)
	if tr != nil {
		tr.setOn(true)
	}
	measureStart = time.Now()
	n := 0
	for n < len(p.ops) && (n == 0 || time.Now().Before(deadline)) {
		for _, o := range p.ops[n : n+s.Round] {
			res.attempted++
			if err := exec(o, true); err != nil {
				res.failed++
				if res.failed <= 5 {
					res.problems = append(res.problems, fmt.Sprintf("%s %s/%s failed: %v", o.kind, o.r, o.t, err))
				}
			}
		}
		n += s.Round
	}
	elapsed := time.Since(measureStart)
	if tr != nil {
		tr.setOn(false)
	}
	if n == len(p.ops) && time.Now().Before(deadline) {
		res.notes = append(res.notes, fmt.Sprintf("generated sequence (%d ops) ran out before the time was up", len(p.ops)))
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	after := takeSnapshot(f, counters)

	// Correctness: Table I per op (above), read-back checks, and on
	// simnet the served-RPC sum against the network's exchange count.
	checkStart := time.Now()
	chk := verify(ctx, f, t)
	res.notes = append(res.notes, fmt.Sprintf("set-up %.2fs (warm-up %.2fs; input generation %.2fs not counted), checks %.2fs",
		setup.Seconds(), before.at.Sub(warmStart).Seconds(), genTime.Seconds(), time.Since(checkStart).Seconds()))
	res.problems = append(res.problems, chk.problems...)
	served := make([]float64, len(after.served))
	var servedSum float64
	for i := range served {
		served[i] = float64(after.served[i] - before.served[i])
		servedSum += served[i]
	}
	if f.net != nil {
		calls := after.net.Calls - before.net.Calls
		lost := (after.net.Drops - before.net.Drops) + (after.net.Busy - before.net.Busy)
		if int64(servedSum) != calls-lost {
			res.problems = append(res.problems, fmt.Sprintf("nodes served %d RPCs, network counted %d exchanges (%d lost)", int64(servedSum), calls, lost))
		}
	}
	res.correct = len(res.problems) == 0

	done := res.attempted - res.failed
	perOp := func(v float64) float64 { return v / float64(done) }
	maxServed := 0.0
	for _, v := range served {
		if v > maxServed {
			maxServed = v
		}
	}
	// Percentiles pool the whole measured phase. Only the medians are
	// end-to-end metrics: a run's p90 and p99 moved with outside load on
	// the machine by more than the benchmark's bounds allow (README,
	// "Machine noise"), so they are printed beside the figures only.
	var p50 [numKinds]float64
	for k := range lat {
		sort.Slice(lat[k], func(i, j int) bool { return lat[k][i] < lat[k][j] })
		p50[k], _ = percentile(lat[k], 50)
		if k := opKind(k); k == opTag || k == opStep {
			p90, b90 := percentile(lat[k], 90)
			p99, b99 := percentile(lat[k], 99)
			res.notes = append(res.notes, fmt.Sprintf("%s latency: %d samples; p50 %.3f ms, p90 %.3f ms (%d beyond), p99 %.3f ms (%d beyond)",
				k, len(lat[k]), p50[k], p90, b90, p99, b99))
		}
	}
	opsPerS := float64(done) / elapsed.Seconds()
	if total := after.machTotal - before.machTotal; total > 0 {
		res.notes = append(res.notes, fmt.Sprintf("machine CPU time stolen by the hypervisor during the measured phase: %.1f%%",
			100*float64(after.machSteal-before.machSteal)/float64(total)))
	}
	res.notes = append(res.notes,
		fmt.Sprintf("ops: %d insert, %d tag, %d step, %d navigate in %.2fs; %d read-back lookups",
			opCount[opInsert], opCount[opTag], opCount[opStep], opCount[opNav], elapsed.Seconds(), chk.reads))
	bytesDelta := counterDelta(before, after, "dharma_rpc_request_bytes_total") +
		counterDelta(before, after, "dharma_rpc_response_bytes_total")

	// End-to-end metrics.
	res.set("ops_per_s", opsPerS, "1/s")
	res.set("tag_p50_ms", p50[opTag], "ms")
	res.set("step_p50_ms", p50[opStep], "ms")
	res.set("rpcs_per_op", perOp(servedSum), "count")
	res.set("bytes_per_op", perOp(bytesDelta), "bytes")
	res.set("hot_node_share", maxServed/(servedSum/float64(len(served))), "ratio")
	res.set("fg_recall", chk.fgRecall, "frac")
	res.set("heap_mb", float64(ms.HeapAlloc)/1e6, "MB")
	res.set("setup_s", setup.Seconds(), "s")

	// Per-layer metrics.
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	totalBlockOps := float64(after.blockOps - before.blockOps)
	appends := float64(after.appends - before.appends)
	lookups := float64(after.lookups - before.lookups)
	res.set("core.block_ops_per_tag", div(float64(blockOps[opTag]), float64(opCount[opTag])), "count")
	res.set("core.block_ops_per_insert", div(float64(blockOps[opInsert]), float64(opCount[opInsert])), "count")
	res.set("core.block_ops_per_step", div(float64(blockOps[opStep]), float64(opCount[opStep])), "count")
	res.set("search.steps_per_walk", div(float64(walkSteps), float64(opCount[opNav])), "count")
	hits, misses := float64(after.hits-before.hits), float64(after.misses-before.misses)
	res.set("dht.cache_hit_ratio", div(hits, hits+misses), "frac")
	res.set("kademlia.lookups_per_block_op", div(lookups, totalBlockOps), "count")
	res.set("kademlia.rounds_per_lookup", div(float64(after.rounds-before.rounds), lookups), "count")
	tried := histDelta(before, after, "dharma_lookup_candidates_tried")
	res.set("kademlia.probes_per_lookup", tried.mean(), "count")
	storeServed := histDelta(before, after, "dharma_rpc_serve_seconds{STORE}")
	res.set("kademlia.store_rpcs_per_append", div(float64(storeServed.count), appends), "count")
	res.set("kademlia.lookup_p50_ms", histDelta(before, after, "dharma_lookup_wall_seconds").quantile(50)*1e3, "ms")
	fv := histDelta(before, after, "dharma_rpc_serve_seconds{FIND_VALUE}")
	res.set("kademlia.serve_us.find_value", fv.mean()*1e6, "us")
	res.set("kademlia.resp_bytes.find_value", div(counterDelta(before, after, "dharma_rpc_response_bytes_total{FIND_VALUE}"), float64(fv.count)), "bytes")
	res.set("kademlia.serve_us.store", storeServed.mean()*1e6, "us")
	res.set("kademlia.req_bytes.store", div(counterDelta(before, after, "dharma_rpc_request_bytes_total{STORE}"), float64(storeServed.count)), "bytes")
	res.set("kademlia.serve_us.find_node", histDelta(before, after, "dharma_rpc_serve_seconds{FIND_NODE}").mean()*1e6, "us")
	netCalls := float64(after.net.Calls - before.net.Calls)
	res.set("simnet.bytes_per_call", div(float64(after.net.BytesOut-before.net.BytesOut+after.net.BytesIn-before.net.BytesIn), netCalls), "bytes")
	dgrams := counterDelta(before, after, "dharma_udp_datagrams_written_total")
	res.set("wire.datagrams_per_op", perOp(dgrams), "count")
	res.set("wire.bytes_per_datagram", div(counterDelta(before, after, "dharma_udp_written_bytes_total"), dgrams), "bytes")
	hs := after.scrape["dharma_session_handshake_seconds"]
	if hs == nil {
		hs = &hist{}
	}
	res.set("session.handshakes", float64(hs.count), "count")
	res.set("session.handshake_ms", hs.mean()*1e3, "ms")
	res.set("admission.rejected", float64(after.net.Busy-before.net.Busy)+
		counterDelta(before, after, "dharma_admission_rejected_queue_total")+
		counterDelta(before, after, "dharma_admission_rejected_rate_total"), "count")
	res.set("persist.wal_bytes_per_op", perOp(float64(after.walBytes-before.walBytes)), "bytes")
	res.set("persist.segments", float64(after.walSegs), "count")
	res.set("runtime.allocs_per_op", perOp(float64(after.allocs-before.allocs)), "count")
	res.set("runtime.alloc_kb_per_op", perOp(float64(after.allocB-before.allocB))/1024, "KB")
	res.set("runtime.gc_cycles_per_kop", perOp(float64(after.gcs-before.gcs))*1000, "count")
	res.set("runtime.cpu_ms_per_op", perOp(float64(after.cpu-before.cpu))/1e6, "ms")
	res.set("trace.ops_per_s", opsPerS, "1/s")
	res.set("trace.rpcs_per_op", perOp(servedSum), "count")
	res.set("trace.block_ops_per_op", perOp(float64(blockOps[opInsert]+blockOps[opTag]+blockOps[opStep]+blockOps[opNav])), "count")
	if tr != nil {
		traceMetrics(res, tr, done)
		path := filepath.Join(rc.dir, fmt.Sprintf("trace-%s.txt", s.Name))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	}
	return res, nil
}

// traceMetrics derives the span-based per-layer numbers: dht call
// latencies, batch sizes, walk times and self time per layer.
func traceMetrics(res *result, tr *tracer, done int) {
	var gets, apps, walks []time.Duration
	var batches, items int
	for _, sp := range tr.spans {
		d := sp.end - sp.start
		switch sp.name {
		case "dht.get":
			gets = append(gets, d)
		case "dht.append", "dht.append_batch":
			apps = append(apps, d)
			if sp.name == "dht.append_batch" {
				batches++
				items += int(sp.items)
			}
		case "search.walk":
			walks = append(walks, d)
		}
	}
	for _, s := range [][]time.Duration{gets, apps, walks} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	g50, _ := percentile(gets, 50)
	g99, _ := percentile(gets, 99)
	a50, _ := percentile(apps, 50)
	a99, _ := percentile(apps, 99)
	res.set("dht.get_p50_ms", g50, "ms")
	res.set("dht.get_p99_ms", g99, "ms")
	res.set("dht.append_p50_ms", a50, "ms")
	res.set("dht.append_p99_ms", a99, "ms")
	batchItems := 0.0
	if batches > 0 {
		batchItems = float64(items) / float64(batches)
	}
	res.set("dht.batch_items", batchItems, "count")
	var walkSum time.Duration
	for _, w := range walks {
		walkSum += w
	}
	walkMS := 0.0
	if len(walks) > 0 {
		walkMS = float64(walkSum) / float64(len(walks)) / 1e6
	}
	res.set("search.walk_ms", walkMS, "ms")

	self := tr.selfTimes()
	var opSelf, dhtTime time.Duration
	for name, d := range self {
		switch name {
		case "op.insert", "op.tag", "op.step", "op.navigate":
			opSelf += d
		case "dht.get", "dht.append", "dht.append_batch":
			dhtTime += d
		}
	}
	perOp := func(d time.Duration) float64 { return float64(d) / float64(done) / 1e6 }
	res.set("self.core_ms_per_op", perOp(opSelf), "ms")
	res.set("self.search_ms_per_op", perOp(self["search.walk"]), "ms")
	res.set("self.store_ms_per_op", perOp(dhtTime), "ms")
	res.set("trace.spans_per_op", float64(len(tr.spans))/float64(done), "count")
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
