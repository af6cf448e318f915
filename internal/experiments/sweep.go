package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"mrdspark/internal/cluster"
	"mrdspark/internal/metrics"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/workload"
)

// The sweep fabric runs the full policy x workload x cluster x chaos
// grid — thousands of configurations — in one invocation, following a
// distribute-then-merge-once discipline: the grid is enumerated in one
// canonical order, partitioned into contiguous shards, each shard's
// rows are computed independently (by pool workers pulling indices, or
// by separate processes), and the per-shard row tables are merged
// exactly once into a single consolidated report. Because every row
// lands at its grid index and every aggregate is computed from the
// merged table in index order, the report is byte-identical regardless
// of worker count, shard count, or scheduling order — proven by
// TestSweepDeterminism.

// SweepConfig selects the grid axes. Empty slices take the full-sweep
// defaults (see FullSweep); the zero value is the full sweep.
type SweepConfig struct {
	// Workloads are generator names (workload.Names() subset).
	Workloads []string `json:"workloads"`
	// Seeds perturb workload generation (Params.Seed).
	Seeds []int64 `json:"seeds"`
	// Clusters are the testbeds swept.
	Clusters []cluster.Config `json:"clusters"`
	// Fractions are working-set fractions converted to per-node cache
	// sizes per workload (cacheForFraction).
	Fractions []float64 `json:"fractions"`
	// Policies are the cache policies under test.
	Policies []PolicySpec `json:"policies"`
	// Presets are fault-schedule names; "healthy" is the no-fault leg.
	Presets []string `json:"presets"`
	// Repls are replication factors applied to every preset.
	Repls []int `json:"repls"`
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

// SmokeSweep is the reduced grid CI and the differential tests run:
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

// Digest fingerprints the normalized grid axes; shard files record it
// so a merge of shards cut from different grids fails instead of
// producing a frankenreport.
func (c SweepConfig) Digest() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("grid-v%d|%+v", cacheKeyVersion, c.normalized())))
	return hex.EncodeToString(sum[:8])
}

// GridPoint is one cell of the sweep grid. Index is the point's
// position in the canonical enumeration order — the merge key.
type GridPoint struct {
	Index    int            `json:"index"`
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Cluster  cluster.Config `json:"cluster"`
	Fraction float64        `json:"fraction"`
	Policy   PolicySpec     `json:"policy"`
	Preset   string         `json:"preset"`
	Repl     int            `json:"repl"`
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
// innermost. The order is part of the sweep's contract: shard
// boundaries, merge validation and report determinism all key on it.
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
	Point        GridPoint   `json:"point"`
	CachePerNode int64       `json:"cachePerNode"`
	Run          metrics.Run `json:"run"`
}

// SweepResult is the merged sweep: one row per grid point, in index
// order, plus the cache-serving stats accumulated while computing
// (stats are reported on stdout, never in the HTML, so warm and cold
// sweeps render byte-identical reports).
type SweepResult struct {
	Config SweepConfig
	Rows   []SweepRow
	Stats  CacheStats
}

// runPoint computes one grid cell through the memoized (and, when a
// CacheStore is installed, persistent) run cache.
func runPoint(pt GridPoint) SweepRow {
	s := open(pt.Workload, workload.Params{Seed: pt.Seed}, pt.Cluster).sized(pt.Fraction)
	run, err := runCachedFault(s.spec, s.cfg, pt.Policy, pt.Preset, pt.Repl)
	if err != nil {
		panic(fmt.Sprintf("sweep: %s seed=%d %s %s/%d: %v",
			pt.Workload, pt.Seed, pt.Policy.Name(), pt.Preset, pt.Repl, err))
	}
	return SweepRow{Point: pt, CachePerNode: s.cfg.CacheBytes, Run: run}
}

// shardRange returns the canonical contiguous [lo, hi) slice of an
// n-point grid owned by shard i of `of`.
func shardRange(shard, of, n int) (lo, hi int) {
	return shard * n / of, (shard + 1) * n / of
}

// runRows computes rows[i] = runPoint(grid[i]) for every point on a
// worker pool, converting a worker panic into an error so callers keep
// their cleanup (closing the cache store, flushing shard files).
func runRows(grid []GridPoint, workers int) (rows []SweepRow, err error) {
	rows = make([]SweepRow, len(grid))
	defer func() {
		if r := recover(); r != nil {
			rows, err = nil, fmt.Errorf("sweep: %v", r)
		}
	}()
	forEachWorkers(workers, len(grid), func(i int) {
		rows[i] = runPoint(grid[i])
	})
	return rows, nil
}

// RunSweep executes the whole grid on a single process's worker pool
// (workers <= 0 means GOMAXPROCS) and merges the rows once. The
// worker pool is work-stealing: idle workers pull the next grid index,
// so a shard of slow chaos runs cannot stall the rest of the grid.
func RunSweep(cfg SweepConfig, workers int) (*SweepResult, error) {
	cfg = cfg.normalized()
	grid := cfg.Grid()
	before := ReadCacheStats()
	rows, err := runRows(grid, workers)
	if err != nil {
		return nil, err
	}
	return &SweepResult{Config: cfg, Rows: rows, Stats: statsSince(before)}, nil
}

// shardFileVersion versions the shard interchange format.
const shardFileVersion = 1

// ShardFile is the interchange unit of a multi-process sweep: the rows
// of one contiguous shard of the grid, stamped with the grid digest so
// merges across mismatched grids fail loudly.
type ShardFile struct {
	Version      int         `json:"version"`
	ConfigDigest string      `json:"configDigest"`
	Shard        int         `json:"shard"`
	Of           int         `json:"of"`
	GridLen      int         `json:"gridLen"`
	Config       SweepConfig `json:"config"`
	Rows         []SweepRow  `json:"rows"`
	Stats        CacheStats  `json:"stats"`
}

// RunSweepShard computes shard `shard` of `of` over the grid and
// returns it as a mergeable shard file.
func RunSweepShard(cfg SweepConfig, shard, of, workers int) (*ShardFile, error) {
	if of < 1 || shard < 0 || shard >= of {
		return nil, fmt.Errorf("sweep: invalid shard %d/%d", shard, of)
	}
	cfg = cfg.normalized()
	grid := cfg.Grid()
	lo, hi := shardRange(shard, of, len(grid))
	before := ReadCacheStats()
	rows, err := runRows(grid[lo:hi], workers)
	if err != nil {
		return nil, err
	}
	return &ShardFile{
		Version:      shardFileVersion,
		ConfigDigest: cfg.Digest(),
		Shard:        shard,
		Of:           of,
		GridLen:      len(grid),
		Config:       cfg,
		Rows:         rows,
		Stats:        statsSince(before),
	}, nil
}

// WriteFile writes the shard as JSON.
func (sf *ShardFile) WriteFile(path string) error {
	b, err := json.MarshalIndent(sf, "", " ")
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadShardFile loads one shard file.
func ReadShardFile(path string) (*ShardFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	var sf ShardFile
	if err := json.Unmarshal(b, &sf); err != nil {
		return nil, fmt.Errorf("sweep: parsing %s: %w", path, err)
	}
	if sf.Version != shardFileVersion {
		return nil, fmt.Errorf("sweep: %s: shard file version %d, want %d", path, sf.Version, shardFileVersion)
	}
	return &sf, nil
}

// MergeShards merges per-shard row tables exactly once into the
// consolidated result. It validates the merge completely: every shard
// must come from the same grid (digest), the shard set must be exactly
// {0..of-1} with no duplicates, and the merged rows must cover every
// grid index exactly once. Stats sum across shards (they are
// order-independent counters).
func MergeShards(files []*ShardFile) (*SweepResult, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("sweep: nothing to merge")
	}
	first := files[0]
	seen := make(map[int]bool, len(files))
	var stats CacheStats
	rows := make([]SweepRow, first.GridLen)
	filled := 0
	for _, sf := range files {
		if sf.ConfigDigest != first.ConfigDigest {
			return nil, fmt.Errorf("sweep: merge of mismatched grids: digest %s vs %s",
				sf.ConfigDigest, first.ConfigDigest)
		}
		if sf.Of != first.Of || sf.GridLen != first.GridLen {
			return nil, fmt.Errorf("sweep: merge of mismatched shard layouts: %d/%d vs %d/%d",
				sf.Shard, sf.Of, first.Shard, first.Of)
		}
		if seen[sf.Shard] {
			return nil, fmt.Errorf("sweep: shard %d/%d supplied twice", sf.Shard, sf.Of)
		}
		seen[sf.Shard] = true
		lo, hi := shardRange(sf.Shard, sf.Of, sf.GridLen)
		if len(sf.Rows) != hi-lo {
			return nil, fmt.Errorf("sweep: shard %d/%d has %d rows, want %d",
				sf.Shard, sf.Of, len(sf.Rows), hi-lo)
		}
		for i, row := range sf.Rows {
			want := lo + i
			if row.Point.Index != want {
				return nil, fmt.Errorf("sweep: shard %d/%d row %d has grid index %d, want %d",
					sf.Shard, sf.Of, i, row.Point.Index, want)
			}
			rows[want] = row
			filled++
		}
		stats.MemoHits += sf.Stats.MemoHits
		stats.DiskHits += sf.Stats.DiskHits
		stats.Simulated += sf.Stats.Simulated
		stats.Waits += sf.Stats.Waits
	}
	if len(seen) != first.Of {
		missing := make([]int, 0, first.Of)
		for i := 0; i < first.Of; i++ {
			if !seen[i] {
				missing = append(missing, i)
			}
		}
		sort.Ints(missing)
		return nil, fmt.Errorf("sweep: incomplete merge: missing shards %v of %d", missing, first.Of)
	}
	if filled != first.GridLen {
		return nil, fmt.Errorf("sweep: merged %d rows, grid has %d", filled, first.GridLen)
	}
	return &SweepResult{Config: first.Config.normalized(), Rows: rows, Stats: stats}, nil
}

// statsSince subtracts a snapshot from the current counters.
func statsSince(before CacheStats) CacheStats {
	now := ReadCacheStats()
	return CacheStats{
		MemoHits:  now.MemoHits - before.MemoHits,
		DiskHits:  now.DiskHits - before.DiskHits,
		Simulated: now.Simulated - before.Simulated,
		Waits:     now.Waits - before.Waits,
	}
}

// Summary is the scrapeable one-line account of a sweep (CI asserts
// warm re-runs on it).
func (r *SweepResult) Summary() string {
	return fmt.Sprintf("sweep: grid=%d %s", len(r.Rows), r.Stats)
}
