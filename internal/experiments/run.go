package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mrdspark/internal/cluster"
	"mrdspark/internal/fault"
	"mrdspark/internal/metrics"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/workload"
)

// PolicySpec and the three specs below are internal/policyspec's,
// under the names the benchmark module compiles against.
type PolicySpec = policyspec.Spec

var (
	SpecLRU = policyspec.LRU
	SpecLRC = policyspec.LRC
	SpecMRD = policyspec.MRD
)

// faultKey identifies the fault schedule a run was simulated under.
// The zero value is the healthy, unreplicated run. Presets are seeded
// and scaled deterministically from (preset, nodes, stages), so the
// name plus the replication factor is a complete identity.
type faultKey struct {
	Preset string
	Repl   int
}

// runKey is the complete identity of one simulation: workload
// generation is a pure function of (Name, Params), fault presets are
// seeded pure functions of (name, nodes, stages), the simulator is
// deterministic, and nothing mutates a Spec's graph after Build — so
// equal keys always produce the same metrics.Run. Every field is
// comparable by construction (PolicySpec, Params and faultKey are flat
// structs; metrics.Run keeps FaultWarning a string for the same
// reason).
type runKey struct {
	workload string
	params   workload.Params
	cfg      cluster.Config
	policy   PolicySpec
	fault    faultKey
}

// runCache memoizes completed simulations across the whole experiment
// suite, keyed by runKey. Suite entries sharing a configuration — most
// commonly the unbounded-cache working-set probe that several
// experiments issue for the same workload — simulate once.
var runCache sync.Map // runKey -> metrics.Run

// inflight gates concurrent cache fills per key (singleflight): the
// first miss becomes the leader and simulates; every concurrent miss
// on the same key waits for the leader's result instead of racing a
// duplicate simulation. Before the gate, racing misses each simulated
// the full run — harmless for correctness (the results are identical)
// but ruinous for the sweep fabric, where thousands of grid points
// share working-set probes.
var inflight sync.Map // runKey -> *flightCall

type flightCall struct {
	done chan struct{}
	run  metrics.Run
	err  error
}

// CacheStats counts how runs were served. The three counters partition
// every RunCached/runCachedFault call: a memoized replay, a real
// simulation, or a wait on another goroutine's in-flight simulation of
// the same key (a memo hit in spirit, tallied apart so the singleflight
// test can pin "exactly one simulation").
type CacheStats struct {
	MemoHits  int64
	Simulated int64
	Waits     int64
}

var (
	statMemoHits  atomic.Int64
	statSimulated atomic.Int64
	statWaits     atomic.Int64
)

// ReadCacheStats returns the counters accumulated since the last
// reset.
func ReadCacheStats() CacheStats {
	return CacheStats{
		MemoHits:  statMemoHits.Load(),
		Simulated: statSimulated.Load(),
		Waits:     statWaits.Load(),
	}
}

// ResetCacheStats zeroes the counters.
func ResetCacheStats() {
	statMemoHits.Store(0)
	statSimulated.Store(0)
	statWaits.Store(0)
}

// Warm reports the fraction of runs served without simulating.
func (s CacheStats) Warm() float64 {
	total := s.MemoHits + s.Simulated + s.Waits
	if total == 0 {
		return 0
	}
	return float64(total-s.Simulated) / float64(total)
}

func (s CacheStats) String() string {
	return fmt.Sprintf("simulated=%d memo-hits=%d waits=%d warm=%.1f%%",
		s.Simulated, s.MemoHits, s.Waits, 100*s.Warm())
}

// simHook, when non-nil, runs at the start of every real simulation
// (test seam: the singleflight test widens the race window with it).
var simHook func()

// ResetRunCache empties the memoized-run cache (test helper).
func ResetRunCache() {
	runCache.Range(func(k, _ any) bool {
		runCache.Delete(k)
		return true
	})
}

// RunCacheLen reports the number of memoized runs (test helper: the
// capacity planner's probes must populate the cache exactly once per
// distinct configuration).
func RunCacheLen() int {
	n := 0
	runCache.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

// RunCached simulates the workload under the policy on the cluster
// through the suite-wide memoized cache: equal (workload, params,
// cluster, policy) keys simulate once and replay from cache after.
// This is the entry point for callers outside the experiment suite —
// the capacity planner's bisection probes in particular — that want
// the memoization without the suite's panic-on-error contract.
func RunCached(spec *workload.Spec, cfg cluster.Config, p PolicySpec) (metrics.Run, error) {
	return runCachedFault(spec, cfg, p, "", 1)
}

// runCachedFault is RunCached under a named fault preset at a
// replication factor — the sweep fabric's chaos axis. An empty or
// "healthy" preset at replication <= 1 normalizes to the plain healthy
// key, so the sweep's healthy leg and direct RunCached callers share
// cache entries.
func runCachedFault(spec *workload.Spec, cfg cluster.Config, p PolicySpec, preset string, repl int) (metrics.Run, error) {
	if repl <= 0 {
		repl = 1
	}
	fk := faultKey{Preset: preset, Repl: repl}
	if (preset == "" || preset == "healthy") && repl == 1 {
		fk = faultKey{}
	}
	key := runKey{workload: spec.Name, params: spec.Params, cfg: cfg, policy: p, fault: fk}
	if v, ok := runCache.Load(key); ok {
		statMemoHits.Add(1)
		return v.(metrics.Run), nil
	}
	c := &flightCall{done: make(chan struct{})}
	if actual, loaded := inflight.LoadOrStore(key, c); loaded {
		ac := actual.(*flightCall)
		<-ac.done
		if ac.err != nil {
			return metrics.Run{}, ac.err
		}
		statWaits.Add(1)
		return ac.run, nil
	}
	c.run, c.err = fillCache(key, spec, p)
	if c.err == nil {
		runCache.Store(key, c.run)
	}
	inflight.Delete(key)
	close(c.done)
	return c.run, c.err
}

// fillCache resolves a cache miss as the singleflight leader by
// simulating the run under its fault schedule.
func fillCache(key runKey, spec *workload.Spec, p PolicySpec) (metrics.Run, error) {
	if simHook != nil {
		simHook()
	}
	statSimulated.Add(1)
	var sched *fault.Schedule
	if key.fault != (faultKey{}) {
		var err error
		sched, err = faultFor(key.fault.Preset, key.cfg.Nodes, spec.Graph.ActiveStages(), key.fault.Repl)
		if err != nil {
			return metrics.Run{}, err
		}
	}
	out, err := simulate(spec, key.cfg, p, sched, false)
	if err != nil {
		return metrics.Run{}, err
	}
	return out.run, nil
}
