package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"dharma/internal/obs"
	"dharma/internal/simnet"
)

// snapshot is every counter a run reads before and after its measured
// phase. Deltas between two snapshots give the phase's numbers.
type snapshot struct {
	at       time.Time
	served   []int64
	net      simnet.Counters
	allocs   uint64 // runtime mallocs
	allocB   uint64 // runtime bytes allocated
	gcs      uint32
	cpu      time.Duration
	lookups  int64 // overlay lookups initiated, all nodes
	rounds   int64 // lookup rounds, all nodes
	blockOps int64 // block operations of the driven clients
	appends  int64 // their append share
	hits     int64 // read-cache hits of the driven clients
	misses   int64 // read-cache misses of the driven clients
	walBytes int64
	walSegs  int
	// machine-wide CPU time and its hypervisor-stolen part, in jiffies
	machTotal, machSteal uint64
	scrape               map[string]*hist   // histograms merged over every peer's registry
	counters             map[string]float64 // counters summed over every peer's registry
}

// hist is a scraped histogram as per-bucket counts keyed by upper bound.
type hist struct {
	count uint64
	sum   float64
	per   map[float64]uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// takeSnapshot reads the fleet's and the process's counters.
func takeSnapshot(f *fleet, cs []counted) snapshot {
	s := snapshot{at: time.Now(), served: f.served(), cpu: cpuTime()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.allocs, s.allocB, s.gcs = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	if f.net != nil {
		s.net = f.net.Counters()
	}
	for _, p := range f.peers {
		s.lookups += p.Node.Lookups()
		s.rounds += p.Node.LookupRounds()
	}
	for _, c := range cs {
		s.blockOps += c.Lookups()
		s.appends += c.Appends()
		s.hits += c.CacheHits()
		s.misses += c.CacheMisses()
	}
	s.walBytes, s.walSegs = walUsage(f.dir)
	s.machTotal, s.machSteal = machineCPU()
	s.scrape = make(map[string]*hist)
	s.counters = make(map[string]float64)
	for _, reg := range f.regs {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			continue
		}
		ms, err := obs.ParsePrometheus(&buf)
		if err != nil {
			continue
		}
		for key, m := range ms {
			if m.Type != "histogram" {
				s.counters[key] += m.Value
				continue
			}
			h := s.scrape[key]
			if h == nil {
				h = &hist{per: make(map[float64]uint64)}
				s.scrape[key] = h
			}
			h.count += m.Count
			h.sum += m.Sum
			var prev uint64
			for i, b := range m.Bounds {
				h.per[b] += m.Cumul[i] - prev
				prev = m.Cumul[i]
			}
		}
	}
	return s
}

// machineCPU reads the machine-wide CPU time counters: the total and
// the part stolen by the hypervisor (0, 0 where /proc/stat is absent).
// The run reports the stolen share of its measured phase, because
// outside load moves every timing metric of this benchmark.
func machineCPU() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		var v uint64
		fmt.Sscan(f, &v) //nolint:errcheck // a malformed field reads as 0
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// walUsage sums the sizes of the write-ahead-log segments under dir and
// counts them.
func walUsage(dir string) (bytes int64, segs int) {
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error { //nolint:errcheck // a vanished file is just not counted
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".wal") {
			bytes += info.Size()
			segs++
		}
		return nil
	})
	return bytes, segs
}

// histDelta returns after − before for one scraped histogram key.
func histDelta(before, after snapshot, key string) hist {
	d := hist{per: make(map[float64]uint64)}
	a := after.scrape[key]
	if a == nil {
		return d
	}
	b := before.scrape[key]
	d.count, d.sum = a.count, a.sum
	for k, v := range a.per {
		d.per[k] = v
	}
	if b != nil {
		d.count -= b.count
		d.sum -= b.sum
		for k, v := range b.per {
			d.per[k] -= v
		}
	}
	return d
}

// mean is sum/count, 0 when empty.
func (h hist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// quantile interpolates linearly inside the power-of-two bucket that
// holds the nearest-rank sample.
func (h hist) quantile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	bounds := make([]float64, 0, len(h.per))
	for b := range h.per {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	rank := math.Ceil(p / 100 * float64(h.count))
	var cum, lower float64
	for _, b := range bounds {
		n := float64(h.per[b])
		if n > 0 && cum+n >= rank {
			return lower + (b-lower)*(rank-cum)/n
		}
		cum += n
		lower = b
	}
	return lower
}

// counterDelta sums after − before over every key with the given
// prefix (a metric name and all its label values).
func counterDelta(before, after snapshot, prefix string) float64 {
	var d float64
	for k, v := range after.counters {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			d += v - before.counters[k]
		}
	}
	return d
}

// percentile is the nearest-rank percentile of sorted samples in ms,
// with the number of samples strictly above it.
func percentile(sorted []time.Duration, p float64) (ms float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e6, len(sorted) - 1 - i
}
