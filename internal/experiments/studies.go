package experiments

import (
	"fmt"
	"math"

	"mrdspark/internal/cluster"
	"mrdspark/internal/metrics"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/workload"
)

// The studies this reproduction adds to the paper's figures: ablations
// of design choices the paper asserts but does not isolate (DESIGN.md
// A1–A5, B1), seed robustness, I/O sensitivity and storage levels.

// ablationFig runs policy variants side by side at one cache size, each
// normalized to LRU there: the size where full MRD gains most, or the
// given fraction of the working set.
type ablationFig struct {
	heading, note string
	workloads     []string // nil: every SparkBench workload
	variants      []PolicySpec
	cfg           cluster.Config
	frac          float64 // 0: the best size for full MRD
}

// ablationRow is one (workload, variant) measurement.
type ablationRow struct {
	workload, variant string
	run               metrics.Run
	normJCT           float64 // vs LRU at the same cache size
}

func (f ablationFig) rows() []ablationRow {
	names := f.workloads
	if names == nil {
		names = workload.SparkBenchNames()
	}
	return flatRows(names, func(name string) []ablationRow {
		sc := open(name, workload.Params{}, f.cfg)
		var at point
		if f.frac == 0 {
			at = sc.best(SpecMRD)
		} else {
			at = sc.sized(f.frac).versusLRU(SpecMRD)
		}
		rows := make([]ablationRow, len(f.variants))
		for i, v := range f.variants {
			run := at.under(v)
			rows[i] = ablationRow{name, v.Name(), run, norm(run, at.lru)}
		}
		return rows
	})
}

func (f ablationFig) render(rows []ablationRow) string {
	t := Table{
		Title:  f.heading,
		Header: []string{"Workload", "Variant", "NormJCT", "Hit", "Evictions", "Purged", "Prefetch used/issued"},
		Note:   f.note,
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.workload, r.variant, pct(r.normJCT), pct1(r.run.HitRatio()),
			itoa(int(r.run.Evictions)), itoa(int(r.run.PurgedBlocks)),
			itoa(int(r.run.PrefetchUsed)) + "/" + itoa(int(r.run.PrefetchIssued)),
		})
	}
	return t.Render()
}

func (f ablationFig) run() string { return f.render(f.rows()) }

// varianceRow reports a workload's MRD-vs-LRU result averaged over
// several seeded runs — the paper's methodology of averaging each
// configuration over 20 runs (§5.3). Each seed perturbs data sizes and
// compute costs by ±10% ("recurring application, new data"), so the
// spread shows how robust the normalized-JCT result is.
type varianceRow struct {
	workload string
	seeds    int
	// meanJCT/minJCT/maxJCT are normalized (MRD / LRU, same seed).
	meanJCT, minJCT, maxJCT float64
	stdDev                  float64
	meanLRUHit, meanMRDHit  float64
	// mrdJCTSigma is the population stddev of the MRD runs' absolute
	// JCTs in µs — how much the perturbed instances themselves spread,
	// as opposed to stdDev, which spreads the MRD/LRU ratio.
	mrdJCTSigma float64
	// mrdPrefetchAcc is the mean prefetch accuracy across the MRD runs.
	mrdPrefetchAcc float64
}

// variance runs the given workloads over `seeds` perturbed instances
// at the workload's best cache size (determined once on the
// unperturbed instance) and aggregates the normalized JCTs.
func variance(cfg cluster.Config, names []string, seeds int) []varianceRow {
	return mapRows(names, func(name string) varianceRow {
		c := open(name, workload.Params{}, cfg).best(SpecMRD).cfg

		row := varianceRow{workload: name, seeds: seeds, minJCT: math.Inf(1), maxJCT: math.Inf(-1)}
		var ratios []float64
		var sum float64
		var lruRuns, mrdRuns []metrics.Run
		for s := 1; s <= seeds; s++ {
			pt := open(name, workload.Params{Seed: int64(s)}, c).versusLRU(SpecMRD)
			r := pt.jct()
			ratios = append(ratios, r)
			sum += r
			lruRuns = append(lruRuns, pt.lru)
			mrdRuns = append(mrdRuns, pt.run)
			row.minJCT = math.Min(row.minJCT, r)
			row.maxJCT = math.Max(row.maxJCT, r)
		}
		row.meanJCT = sum / float64(len(ratios))
		var ss float64
		for _, r := range ratios {
			ss += (r - row.meanJCT) * (r - row.meanJCT)
		}
		row.stdDev = math.Sqrt(ss / float64(len(ratios)))
		row.meanLRUHit = metrics.Aggregate(lruRuns).MeanHit
		mrdSum := metrics.Aggregate(mrdRuns)
		row.meanMRDHit = mrdSum.MeanHit
		row.mrdJCTSigma = mrdSum.StdDevJCT
		row.mrdPrefetchAcc = mrdSum.MeanPrefetchAcc
		return row
	})
}

func renderVariance(rows []varianceRow) string {
	t := Table{
		Title: "Multi-seed robustness: MRD vs LRU over perturbed recurring runs (±10% data/cost jitter)",
		Header: []string{"Workload", "Seeds", "MeanJCT", "Min", "Max", "StdDev",
			"LRU hit", "MRD hit", "MRD σJCT", "MRD pf-acc"},
		Note: "The paper averages every configuration over 20 runs; here each seed is a recurring run over new data.",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.workload, itoa(r.seeds), pct(r.meanJCT), pct(r.minJCT), pct(r.maxJCT),
			f2(r.stdDev), pct1(r.meanLRUHit), pct1(r.meanMRDHit),
			ms(int64(r.mrdJCTSigma)), pct1(r.mrdPrefetchAcc),
		})
	}
	return t.Render()
}

// sensitivityRow is one (workload, disk bandwidth) point of the
// I/O-intensity sweep: full MRD beside LRU at that bandwidth.
type sensitivityRow struct {
	diskMBps int64
	point
}

// sensitivity sweeps the per-node disk bandwidth and measures MRD's
// normalized JCT at each point. The paper's §5.10 claims MRD "works
// best for I/O-intensive workloads"; this sweep makes the claim
// causal: the same workload moves from I/O-bound (slow disks, big MRD
// wins) to compute-bound (fast disks, wins vanish) with nothing else
// changing.
func sensitivity(base cluster.Config, names []string, diskMBps []int64) []sensitivityRow {
	return flatRows(names, func(name string) []sensitivityRow {
		// Fix the cache size once (at the base bandwidth) so only the
		// disk speed varies across the sweep.
		s := open(name, workload.Params{}, base).sized(0.85)
		rows := make([]sensitivityRow, len(diskMBps))
		for i, mbps := range diskMBps {
			s.cfg.DiskBytesPerSec = mbps * cluster.MB
			rows[i] = sensitivityRow{mbps, s.versusLRU(SpecMRD)}
		}
		return rows
	})
}

func renderSensitivity(rows []sensitivityRow) string {
	t := Table{
		Title:  "I/O-intensity sensitivity: MRD's gain vs disk bandwidth (cache fixed per workload)",
		Header: []string{"Workload", "Disk MB/s", "MRD JCT", "LRU hit", "MRD hit"},
		Note: "Slower disks make the same workload more I/O-bound; the paper's §5.10 claim predicts MRD's\n" +
			"normalized JCT falls (bigger win) as bandwidth drops and approaches 100% as compute dominates.",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.spec.Name, itoa(int(r.diskMBps)), pct(r.jct()), pct1(r.lru.HitRatio()), pct1(r.run.HitRatio()),
		})
	}
	return t.Render()
}

// storageLevelRow is one (workload, storage level, policy) cell of the
// storage-level study.
type storageLevelRow struct {
	workload string
	level    string // "MEMORY_AND_DISK" or "MEMORY_ONLY"
	policy   string
	run      metrics.Run
	normJCT  float64 // vs LRU at the same level and cache size
}

// storageLevelStudy contrasts the two caching substrates the simulator
// implements. Under MEMORY_AND_DISK (the evaluation default; a miss
// promotes the block back from local disk) every block access is
// visible in the reference schedule, and schedule-driven policies
// dominate. Under MEMORY_ONLY (Spark's default cache()) a miss
// recomputes through the lineage, which *reads cached ancestors the
// static schedule never mentions* — reference-distance and
// reference-count policies are blind to those reads, and even the
// stage-granular MIN oracle stops being an upper bound. This study
// quantifies the DESIGN.md/EXPERIMENTS.md deviation note.
func storageLevelStudy(cfg cluster.Config) []storageLevelRow {
	policies := []PolicySpec{SpecLRU, SpecLRC, policyspec.MRDEvictOnly, policyspec.MIN}
	levels := []struct {
		label      string
		memoryOnly bool
	}{{"MEMORY_AND_DISK", false}, {"MEMORY_ONLY", true}}

	return flatRows([]string{"PR", "CC", "SVD", "LP"}, func(name string) []storageLevelRow {
		// Pick the cache size on the default (restorable) substrate.
		c := open(name, workload.Params{}, cfg).best(SpecMRD).cfg
		var rows []storageLevelRow
		for _, lv := range levels {
			s := open(name, workload.Params{MemoryOnly: lv.memoryOnly}, c)
			lru := s.under(SpecLRU)
			for _, p := range policies {
				run := s.under(p)
				rows = append(rows, storageLevelRow{name, lv.label, p.Name(), run, norm(run, lru)})
			}
		}
		return rows
	})
}

func renderStorageLevel(rows []storageLevelRow) string {
	t := Table{
		Title: "Storage-level study: restorable (MEMORY_AND_DISK) vs recompute-on-miss (MEMORY_ONLY) caching",
		Header: []string{"Workload", "Level", "Policy", "NormJCT", "Hit",
			"Promotes", "Recomputes"},
		Note: "Under MEMORY_ONLY, recompute cascades perform reads the static reference schedule cannot see;\n" +
			"distance- and count-based policies (and the stage-granular MIN oracle) lose their guarantee there —\n" +
			"the reason the evaluation substrate is MEMORY_AND_DISK, which the paper's prefetching requires anyway.",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.workload, r.level, r.policy, pct(r.normJCT), pct1(r.run.HitRatio()),
			itoa(int(r.run.DiskPromotes)), itoa(int(r.run.Recomputes)),
		})
	}
	return t.Render()
}

// stageBreakdown localizes where MRD's advantage comes from: the same
// workload is run under MRD and LRU with the observability aggregator
// attached, and each executed stage is compared side by side — cache
// outcomes and stage duration. The aggregate JCT ratios elsewhere say
// MRD wins; this table says in which stages. Stage executions pair by
// position: the DAG drives the schedule, so both policies execute the
// identical stage sequence.
func stageBreakdown(cfg cluster.Config, name string, frac float64) string {
	s := open(name, workload.Params{}, cfg).sized(frac)
	mrdAgg := s.simulate(SpecMRD, nil, true).agg
	lruAgg := s.simulate(SpecLRU, nil, true).agg

	t := Table{
		Title: fmt.Sprintf("Per-stage breakdown on %s: MRD vs LRU (same stage sequence, paired by execution order)", name),
		Header: []string{"Stage", "Job", "Kind", "Tasks",
			"MRD dur", "LRU dur", "Δdur",
			"MRD hit/miss", "LRU hit/miss", "MRD pf-used", "MRD purge", "LRU evict"},
	}
	var mrdTotal, lruTotal int64
	mrdStages, lruStages := mrdAgg.StageStats(), lruAgg.StageStats()
	for i := 0; i < len(mrdStages) && i < len(lruStages); i++ {
		mrd, lru := mrdStages[i], lruStages[i]
		md, ld := mrd.DurationUs(), lru.DurationUs()
		mrdTotal += md
		lruTotal += ld
		delta := "="
		if ld > 0 {
			delta = fmt.Sprintf("%+.0f%%", 100*float64(md-ld)/float64(ld))
		}
		t.Rows = append(t.Rows, []string{
			itoa(mrd.StageID), itoa(mrd.JobID), mrd.Kind, itoa(mrd.Tasks),
			ms(md), ms(ld), delta,
			fmt.Sprintf("%d/%d", mrd.Hits, mrd.Misses),
			fmt.Sprintf("%d/%d", lru.Hits, lru.Misses),
			fmt.Sprint(mrd.PrefetchUsed),
			fmt.Sprint(mrd.Purged),
			fmt.Sprint(lru.Evictions),
		})
	}
	t.Note = fmt.Sprintf("Summed stage time: MRD %s vs LRU %s.", ms(mrdTotal), ms(lruTotal))
	out := t.Render()
	// MRD's eviction-verdict reference distances (how far from reuse the
	// victims were) and prefetch issue→first-use lead times.
	if mrdAgg.EvictDistance.Count > 0 {
		out += "\n" + mrdAgg.EvictDistance.String()
	}
	if mrdAgg.PrefetchLead.Count > 0 {
		out += "\n" + mrdAgg.PrefetchLead.String()
	}
	return out
}
