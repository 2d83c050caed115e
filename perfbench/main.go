// Command perfbench is the DHARMA benchmark. One invocation runs one
// workload in its own process: it boots the workload's fleet, replays
// an operation sequence generated from --seed through one closed-loop
// client for --seconds, checks the program's outputs against the
// benchmark's own tally, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run records spans and reports the per-layer metrics instead.
//
//	go run . --workload browse-hot --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// processStart anchors setup_s at the process's start.
var processStart = time.Now()

// endToEnd and perLayer name the metrics each mode prints.
var (
	endToEnd = []string{
		"ops_per_s", "tag_p50_ms", "step_p50_ms",
		"rpcs_per_op", "bytes_per_op", "hot_node_share", "fg_recall", "heap_mb", "setup_s",
	}
	perLayer = []string{
		"core.block_ops_per_tag", "core.block_ops_per_insert", "core.block_ops_per_step",
		"search.steps_per_walk", "search.walk_ms",
		"dht.get_p50_ms", "dht.get_p99_ms", "dht.append_p50_ms", "dht.append_p99_ms",
		"dht.batch_items", "dht.cache_hit_ratio",
		"kademlia.lookups_per_block_op", "kademlia.rounds_per_lookup", "kademlia.probes_per_lookup",
		"kademlia.store_rpcs_per_append", "kademlia.lookup_p50_ms",
		"kademlia.serve_us.find_value", "kademlia.resp_bytes.find_value",
		"kademlia.serve_us.store", "kademlia.req_bytes.store", "kademlia.serve_us.find_node",
		"simnet.bytes_per_call", "wire.datagrams_per_op", "wire.bytes_per_datagram",
		"session.handshakes", "session.handshake_ms", "admission.rejected",
		"persist.wal_bytes_per_op", "persist.segments",
		"runtime.allocs_per_op", "runtime.alloc_kb_per_op", "runtime.gc_cycles_per_kop", "runtime.cpu_ms_per_op",
		"self.core_ms_per_op", "self.search_ms_per_op", "self.store_ms_per_op",
		"trace.ops_per_s", "trace.rpcs_per_op", "trace.block_ops_per_op", "trace.spans_per_op",
	}
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the generated operation sequence")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	dir := flag.String("dir", ".bench_build/perfbench", "work directory for data, identities and trace files")
	flag.Parse()

	s, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(context.Background(), s, runConfig{
		seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir,
	}, processStart)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	if err := report(os.Stdout, s, *seed, res, names); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// report prints the human-readable summary, then the JSON result line.
func report(w *os.File, s spec, seed int64, res *result, names []string) error {
	fmt.Fprintf(w, "# %s seed=%d correct=%v attempted=%d failed=%d\n", s.Name, seed, res.correct, res.attempted, res.failed)
	for _, n := range res.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, make(map[string]metric, len(names))}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for _, n := range sorted {
		m, ok := res.metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not computed", n)
		}
		out.Metrics[n] = m
		fmt.Fprintf(w, "# %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
