package experiments

import (
	"fmt"

	"mrdspark/internal/cluster"
	"mrdspark/internal/core"
	"mrdspark/internal/fault"
	"mrdspark/internal/metrics"
	"mrdspark/internal/obs"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/sim"
	"mrdspark/internal/workload"
)

// The query layer. The paper's evaluation is one procedure applied
// many times (§5.3): build a workload, size the cache as a fraction of
// its live working set, run a policy beside LRU, and report the size
// where the policy gains most. Every figure, table and sweep cell asks
// its runs of a scenario instead of writing that procedure out again.

// mustBuild generates a workload. Suite entries name registry
// workloads at compile time, so a failure is a programming mistake.
func mustBuild(name string, p workload.Params) *workload.Spec {
	spec, err := workload.Build(name, p)
	if err != nil {
		panic(err)
	}
	return spec
}

// suiteSpecs builds, in registry (paper Table 1) order, the default
// instance of every workload belonging to one of the named suites.
func suiteSpecs(suites ...string) []*workload.Spec {
	var specs []*workload.Spec
	for _, name := range workload.Names() {
		spec := mustBuild(name, workload.Params{})
		for _, s := range suites {
			if spec.Suite == s {
				specs = append(specs, spec)
			}
		}
	}
	return specs
}

// mapRows computes one row per item on the worker pool. Simulations
// are independent and deterministic, so parallelism cannot change a
// result; fn must only return its own row.
func mapRows[T, R any](items []T, fn func(T) R) []R {
	rows := make([]R, len(items))
	forEach(len(items), func(i int) { rows[i] = fn(items[i]) })
	return rows
}

// flatRows is mapRows for items that each yield several rows,
// concatenated in item order.
func flatRows[T, R any](items []T, fn func(T) []R) []R {
	var rows []R
	for _, rs := range mapRows(items, fn) {
		rows = append(rows, rs...)
	}
	return rows
}

// scenario is one workload instance on one cluster. A built graph is
// never mutated (the run-key contract), so a scenario is freely copied
// and shared between runs.
type scenario struct {
	spec *workload.Spec
	cfg  cluster.Config
}

func open(name string, p workload.Params, cfg cluster.Config) scenario {
	return scenario{mustBuild(name, p), cfg}
}

// under simulates the scenario under the policy through the memoized
// run cache: repeated (workload, cluster, policy) triples replay.
func (s scenario) under(p PolicySpec) metrics.Run {
	run, err := RunCached(s.spec, s.cfg, p)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s on %s: %v", p.Name(), s.spec.Name, err))
	}
	return run
}

// workingSet measures the workload's peak *live* cached working set:
// the cluster-wide occupancy high-water mark under MRD eviction with
// effectively unbounded cache, where the purge of dead generations
// leaves exactly the blocks that still have references. This is the
// natural scale for cache-size sweeps: below it even a clairvoyant
// policy must miss; around and above it the policies differ only in
// how well they separate live data from garbage.
func (s scenario) workingSet() int64 {
	s.cfg = s.cfg.WithCache(1 << 42)
	return s.under(policyspec.MRDEvictOnly).PeakCacheUsed
}

// sized returns the scenario with its per-node cache set to a fraction
// of the working set.
func (s scenario) sized(frac float64) scenario {
	s.cfg = s.cfg.WithCache(cacheForFraction(s.spec, s.workingSet(), frac, s.cfg))
	return s
}

// cacheForFraction converts a working-set fraction to a per-node cache
// size, flooring at a few of the workload's largest cached blocks so
// every configuration can actually cache something.
func cacheForFraction(spec *workload.Spec, ws int64, frac float64, cfg cluster.Config) int64 {
	perNode := int64(frac * float64(ws) / float64(cfg.Nodes))
	var maxBlock int64
	for _, r := range spec.Graph.CachedRDDs() {
		if r.PartSize > maxBlock {
			maxBlock = r.PartSize
		}
	}
	if floor := 2 * maxBlock; perNode < floor {
		perNode = floor
	}
	if perNode < 1*cluster.MB {
		perNode = 1 * cluster.MB
	}
	return perNode
}

// point is a policy's run at one cache size beside the LRU run at the
// same size — the baseline every figure normalizes against.
type point struct {
	scenario         // cfg carries the cache size
	frac     float64 // working-set fraction, when best chose the size
	lru, run metrics.Run
}

// jct is the policy's JCT as a fraction of LRU's (lower is better).
func (p point) jct() float64 { return norm(p.run, p.lru) }

// norm returns run JCT as a fraction of the baseline JCT.
func norm(run, baseline metrics.Run) float64 {
	return metrics.Normalize(run, baseline).JCT
}

func (s scenario) versusLRU(p PolicySpec) point {
	return point{scenario: s, lru: s.under(SpecLRU), run: s.under(p)}
}

// defaultFractions is the cache-size sweep used when an experiment
// reports "the best cache size per workload", mirroring the paper's
// methodology of running several cache sizes and reporting the best
// gain (§5.3).
var defaultFractions = []float64{0.4, 0.6, 0.85, 1.2, 1.8}

// best sweeps defaultFractions and returns the point where the policy
// gains most over LRU at the same cache size. Ties keep the smallest
// cache.
func (s scenario) best(p PolicySpec) point {
	var best point
	for i, frac := range defaultFractions {
		pt := s.sized(frac).versusLRU(p)
		pt.frac = frac
		if i == 0 || pt.jct() < best.jct() {
			best = pt
		}
	}
	return best
}

// simulated is what one real simulation yields. Only run is ever
// memoized; the other two are side channels for the
// callers that simulate directly.
type simulated struct {
	run metrics.Run
	// stats are the MRD manager's action counts (table re-issues, stale
	// windows); zero for every other policy.
	stats core.Stats
	// agg is the event-bus aggregator, attached only on request.
	agg *obs.Aggregator
}

// simulate is the package's one entry into the simulator. A nil
// schedule is the healthy run.
func simulate(spec *workload.Spec, cfg cluster.Config, p PolicySpec, sched *fault.Schedule, observe bool) (simulated, error) {
	factory := p.Factory(spec)
	s, err := sim.New(spec.Graph, cfg, factory, spec.Name)
	if err != nil {
		return simulated{}, err
	}
	if sched != nil {
		if err := s.SetOptions(sim.Options{Fault: sched}); err != nil {
			return simulated{}, err
		}
	}
	var out simulated
	if observe {
		out.agg = s.Observe()
	}
	out.run = s.Run()
	if mgr, ok := factory.(*core.Manager); ok {
		out.stats = mgr.Stats()
	}
	return out, nil
}

// simulate runs the scenario past the cache, for the studies that need
// a side channel the cache does not carry.
func (s scenario) simulate(p PolicySpec, sched *fault.Schedule, observe bool) simulated {
	out, err := simulate(s.spec, s.cfg, p, sched, observe)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s on %s: %v", p.Name(), s.spec.Name, err))
	}
	return out
}
