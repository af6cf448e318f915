package main

import (
	"math"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
)

// A bench is one workload: a closed loop over generated inputs. The harness owns
// the clock, the process counters and the statistics; a workload owns
// its inputs, its oracle and the calls into the program.
type bench interface {
	// setup does everything that precedes the first timed op — input
	// generation from the seed, server boot, the oracle, a warm-up pass
	// — and is what setup_s measures. It may be called again after close.
	setup() error
	// run drives the loop until the deadline and reports what it saw.
	// With a non-nil tracing it also records spans and layer counters;
	// the ops, their order and their outputs are the same either way.
	run(deadline time.Time, tr *tracing) tally
	// layers adds the per-layer metrics of this workload's path: the
	// ones derived from the traced rounds in tr, and the stand-alone
	// probes of the layers the path enters.
	layers(m metricSet, tr *tracing, e effort) error
	close()
}

// tally is what one round of a workload's loop observed.
type tally struct {
	lat       []int64 // latency in ns of every op that succeeded
	attempted int
	failed    int   // errored, or output differed from the oracle
	hits      int64 // cached-block reads served from memory
	reads     int64 // cached-block reads
}

// roundStats is one timed round reduced to the end-to-end metrics.
type roundStats struct {
	tally
	wall       time.Duration
	cpu        time.Duration
	gcCPU      float64 // seconds
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
}

func (r roundStats) ops() int { return len(r.lat) }

type metricSet map[string]float64

var gcCPUSample = []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func gcCPUSeconds() float64 {
	rtmetrics.Read(gcCPUSample)
	if gcCPUSample[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return gcCPUSample[0].Value.Float64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// settle returns the heap to a comparable state between rounds, so one
// round's garbage is not collected on the next round's clock.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// measure runs one round of w for d and brackets it with the process
// counters the end-to-end metrics are made of.
func measure(w bench, d time.Duration, tr *tracing) roundStats {
	settle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, cpu0 := gcCPUSeconds(), processCPU()
	start := time.Now()
	t := w.run(start.Add(d), tr)
	wall := time.Since(start)
	cpu1, gc1 := processCPU(), gcCPUSeconds()
	runtime.ReadMemStats(&after)
	return roundStats{
		tally:      t,
		wall:       wall,
		cpu:        cpu1 - cpu0,
		gcCPU:      gc1 - gc0,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcCycles:   after.NumGC - before.NumGC,
	}
}

// endToEnd reduces the rounds of one untraced run to the end-to-end
// metrics, each computed per round first.
//
// The three timings are reported from the round in which each was best.
// Interference in this sandbox only ever slows a round down, and comes in
// bursts of a second or a few: over six 20 s runs of sim-lru in 0.5 s
// rounds the per-round median ranged from 41 to 61 ms, its median across
// a run's rounds from 44 to 50 ms, its minimum from 41 to 43 ms. The
// counts do not depend on the machine and are the median across rounds.
//
// A round in which every op failed has no latency to report; a run of
// such rounds reads 0 throughout, next to its failure count.
func endToEnd(rounds []roundStats, setups []time.Duration) metricSet {
	var rate, p50, cpu, allocKB, allocs []float64
	var hits, reads int64
	for _, r := range rounds {
		if r.ops() == 0 {
			continue
		}
		n := float64(r.ops())
		rate = append(rate, n/r.wall.Seconds())
		p50 = append(p50, percentile(r.lat, 50)/1e6)
		cpu = append(cpu, float64(r.cpu)/1e6/n)
		allocKB = append(allocKB, float64(r.allocBytes)/1024/n)
		allocs = append(allocs, float64(r.mallocs)/n)
		hits += r.hits
		reads += r.reads
	}
	m := metricSet{}
	if len(rate) > 0 {
		m["ops_per_s"] = slices.Max(rate)
		m["op_p50_ms"] = slices.Min(p50)
		m["cpu_ms_per_op"] = slices.Min(cpu)
		m["alloc_kb_per_op"] = median(allocKB)
		m["allocs_per_op"] = median(allocs)
	}
	secs := make([]float64, len(setups))
	for i, s := range setups {
		secs[i] = s.Seconds()
	}
	m["setup_s"] = median(secs)
	if reads > 0 {
		m["hit_ratio"] = float64(hits) / float64(reads)
	}
	return m
}

// percentile is the nearest-rank percentile of ns samples; it sorts in
// place.
func percentile(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	rank := int(math.Ceil(p / 100 * float64(len(ns))))
	if rank < 1 {
		rank = 1
	}
	return float64(ns[rank-1])
}

// tailPercentile is the highest percentile of the ladder that still has
// at least ten samples beyond it, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 0
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// firstError keeps the first error a probe's timed closures ran into;
// they cannot return one themselves.
type firstError struct{ err error }

func (f *firstError) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// effort scales the stand-alone probes: how often each is repeated and
// how many calls each repetition times. The benchmark runs at full
// effort; its own test divides the work so that it stays quick.
type effort struct {
	reps int // readings per probe; the fastest is kept
	div  int // divisor of every probe's call count
}

var (
	fullEffort  = effort{reps: 3, div: 1}
	quickEffort = effort{reps: 1, div: 50}
)

// perCall times n calls of fn in one clock bracket and returns ns per
// call — the probe for calls too short to time one by one.
func (e effort) perCall(n int, fn func(i int)) float64 {
	if n = n / e.div; n < 1 {
		n = 1
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// best repeats a probe and keeps the fastest reading: a stand-alone
// probe has no queueing of its own, so anything above the minimum is
// interference from the machine.
func (e effort) best(probe func() float64) float64 {
	best := math.Inf(1)
	for i := 0; i < e.reps; i++ {
		if v := probe(); v < best {
			best = v
		}
	}
	return best
}
