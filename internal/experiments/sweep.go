package experiments

import (
	"fmt"

	"mrdspark/internal/cluster"
	"mrdspark/internal/metrics"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/workload"
)

// The sweep fabric runs the full policy x workload x cluster x chaos
// grid — thousands of configurations — in one invocation: the grid is
// enumerated in one canonical order, pool workers pull indices and
// write each row at its grid index, and the report aggregates the row
// table in index order. The report is therefore byte-identical
// regardless of worker count, scheduling order, or how warm the run
// memo was — proven by TestSweepDeterminism.

// SweepConfig selects the grid axes. Empty slices take the full-sweep
// defaults (see FullSweep); the zero value is the full sweep.
type SweepConfig struct {
	// Workloads are generator names (workload.Names() subset).
	Workloads []string
	// Seeds perturb workload generation (Params.Seed).
	Seeds []int64
	// Clusters are the testbeds swept.
	Clusters []cluster.Config
	// Fractions are working-set fractions converted to per-node cache
	// sizes per workload (cacheForFraction).
	Fractions []float64
	// Policies are the cache policies under test.
	Policies []PolicySpec
	// Presets are fault-schedule names; "healthy" is the no-fault leg.
	Presets []string
	// Repls are replication factors applied to every preset.
	Repls []int
}

// FullSweep is the whole evaluation grid: every workload generator,
// the core policy families, the paper's cache-size sweep, two data
// seeds, and the chaos escalation on top of the healthy leg. On the
// default axes this enumerates thousands of grid points (23 workloads
// x 11 policies x 5 fractions x 2 seeds x 3 presets = 7590).
func FullSweep() SweepConfig {
	return SweepConfig{
		Workloads: workload.Names(),
		Seeds:     []int64{0, 101},
		Clusters:  []cluster.Config{cluster.Main()},
		Fractions: defaultFractions,
		Policies: []PolicySpec{
			SpecLRU,
			{Kind: "FIFO"},
			{Kind: "LFU"},
			{Kind: "Hyperbolic"},
			{Kind: "GDS"},
			SpecLRC,
			policyspec.MemTune,
			policyspec.MIN,
			policyspec.MRDEvictOnly,
			policyspec.MRDPrefetchOnly,
			SpecMRD,
		},
		Presets: []string{"healthy", "crash", "chaos"},
		Repls:   []int{1},
	}
}

// SmokeSweep is the reduced grid the CLI and pinning tests run:
// three workloads, three policies, two cache sizes, healthy plus one
// crash schedule (36 points).
func SmokeSweep() SweepConfig {
	return SweepConfig{
		Workloads: []string{"KM", "CC", "SVD"},
		Seeds:     []int64{0},
		Clusters:  []cluster.Config{cluster.Main()},
		Fractions: []float64{0.6, 1.2},
		Policies:  []PolicySpec{SpecLRU, SpecLRC, SpecMRD},
		Presets:   []string{"healthy", "crash"},
		Repls:     []int{1},
	}
}

// normalized fills empty axes from FullSweep so a zero SweepConfig is
// the full sweep and every grid consumer sees concrete axes.
func (c SweepConfig) normalized() SweepConfig {
	full := FullSweep()
	orFull(&c.Workloads, full.Workloads)
	orFull(&c.Seeds, full.Seeds)
	orFull(&c.Clusters, full.Clusters)
	orFull(&c.Fractions, full.Fractions)
	orFull(&c.Policies, full.Policies)
	orFull(&c.Presets, full.Presets)
	orFull(&c.Repls, full.Repls)
	return c
}

func orFull[T any](axis *[]T, full []T) {
	if len(*axis) == 0 {
		*axis = full
	}
}

// GridPoint is one cell of the sweep grid. Index is the point's
// position in the canonical enumeration order — its row's slot.
type GridPoint struct {
	Index    int
	Workload string
	Seed     int64
	Cluster  cluster.Config
	Fraction float64
	Policy   PolicySpec
	Preset   string
	Repl     int
}

// baseKey identifies a grid point minus its policy — what a policy's
// run is normalized against (the LRU run at the same point).
type baseKey struct {
	Workload string
	Seed     int64
	Cluster  string
	Fraction float64
	Preset   string
	Repl     int
}

func (p GridPoint) base() baseKey {
	return baseKey{p.Workload, p.Seed, p.Cluster.Name, p.Fraction, p.Preset, p.Repl}
}

// Grid enumerates the full grid in canonical order: workload, seed,
// cluster, fraction, policy, preset, replication — outermost to
// innermost. The order is part of the sweep's contract: row slots and
// report determinism key on it.
func (c SweepConfig) Grid() []GridPoint {
	c = c.normalized()
	var grid []GridPoint
	for _, name := range c.Workloads {
		for _, seed := range c.Seeds {
			for _, cl := range c.Clusters {
				for _, frac := range c.Fractions {
					for _, p := range c.Policies {
						for _, preset := range c.Presets {
							for _, repl := range c.Repls {
								grid = append(grid, GridPoint{
									Index:    len(grid),
									Workload: name,
									Seed:     seed,
									Cluster:  cl,
									Fraction: frac,
									Policy:   p,
									Preset:   preset,
									Repl:     repl,
								})
							}
						}
					}
				}
			}
		}
	}
	return grid
}

// SweepRow is one computed grid cell.
type SweepRow struct {
	Point        GridPoint
	CachePerNode int64
	Run          metrics.Run
}

// SweepResult is the computed sweep: one row per grid point, in index
// order, plus the cache-serving stats accumulated while computing
// (stats are reported on stdout, never in the HTML, so warm and cold
// sweeps render byte-identical reports).
type SweepResult struct {
	Config SweepConfig
	Rows   []SweepRow
	Stats  CacheStats
}

// runPoint computes one grid cell through the memoized run cache.
func runPoint(pt GridPoint) SweepRow {
	s := open(pt.Workload, workload.Params{Seed: pt.Seed}, pt.Cluster).sized(pt.Fraction)
	run, err := runCachedFault(s.spec, s.cfg, pt.Policy, pt.Preset, pt.Repl)
	if err != nil {
		panic(fmt.Sprintf("sweep: %s seed=%d %s %s/%d: %v",
			pt.Workload, pt.Seed, pt.Policy.Name(), pt.Preset, pt.Repl, err))
	}
	return SweepRow{Point: pt, CachePerNode: s.cfg.CacheBytes, Run: run}
}

// RunSweep executes the whole grid on a worker pool (workers <= 0
// means GOMAXPROCS), writing rows[i] = runPoint(grid[i]). The pool is
// work-stealing: idle workers pull the next grid index, so a run of
// slow chaos points cannot stall the rest of the grid. A failing point
// comes back as an error, not a panic.
func RunSweep(cfg SweepConfig, workers int) (res *SweepResult, err error) {
	cfg = cfg.normalized()
	grid := cfg.Grid()
	before := ReadCacheStats()
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("sweep: %v", r)
		}
	}()
	rows := make([]SweepRow, len(grid))
	forEachWorkers(workers, len(grid), func(i int) {
		rows[i] = runPoint(grid[i])
	})
	return &SweepResult{Config: cfg, Rows: rows, Stats: statsSince(before)}, nil
}

// statsSince subtracts a snapshot from the current counters.
func statsSince(before CacheStats) CacheStats {
	now := ReadCacheStats()
	return CacheStats{
		MemoHits:  now.MemoHits - before.MemoHits,
		Simulated: now.Simulated - before.Simulated,
		Waits:     now.Waits - before.Waits,
	}
}

// Summary is the one-line account of a sweep that cmd/experiments
// prints: the grid size and how the runs were served.
func (r *SweepResult) Summary() string {
	return fmt.Sprintf("sweep: grid=%d %s", len(r.Rows), r.Stats)
}
