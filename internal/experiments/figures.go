package experiments

import (
	"fmt"

	"mrdspark/internal/cluster"
	"mrdspark/internal/metrics"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/refdist"
	"mrdspark/internal/workload"
)

// The paper's performance figures (4–12). Figures that differ only in
// data are one type here and one row each in the suite table.

// overallFig is the Fig 4 treatment of one benchmark suite: each
// workload at the cache size where full MRD gains most over LRU, with
// the two single-mechanism MRD variants beside it.
type overallFig struct {
	heading string
	suite   string
	cfg     cluster.Config
	// note closes the table; the paper's own figure (empty note) gets
	// the cross-workload averages and a bar chart instead.
	note string
}

type overallRow struct {
	full            point       // full MRD at its best cache size
	evict, prefetch metrics.Run // eviction-only and prefetch-only there
}

func (r overallRow) evictJCT() float64    { return norm(r.evict, r.full.lru) }
func (r overallRow) prefetchJCT() float64 { return norm(r.prefetch, r.full.lru) }

func (f overallFig) rows() []overallRow {
	return mapRows(suiteSpecs(f.suite), func(spec *workload.Spec) overallRow {
		full := scenario{spec, f.cfg}.best(SpecMRD)
		return overallRow{
			full:     full,
			evict:    full.under(policyspec.MRDEvictOnly),
			prefetch: full.under(policyspec.MRDPrefetchOnly),
		}
	})
}

// overallAverages summarizes the three variants across workloads (the
// paper's headline numbers: eviction-only 62%, prefetch-only 67%, full
// 53% of LRU's JCT on average).
func overallAverages(rows []overallRow) (evict, prefetch, full float64) {
	for _, r := range rows {
		evict += r.evictJCT()
		prefetch += r.prefetchJCT()
		full += r.full.jct()
	}
	n := float64(len(rows))
	return evict / n, prefetch / n, full / n
}

func (f overallFig) render(rows []overallRow) string {
	t := Table{
		Title: f.heading,
		Header: []string{"Workload", "JobType", "Cache/Node", "WS-frac",
			"EvictOnly", "PrefetchOnly", "FullMRD", "LRU hit", "MRD hit"},
		Note: f.note,
	}
	labels := make([]string, len(rows))
	vals := make([]float64, len(rows))
	for i, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.full.spec.Name, string(r.full.spec.JobType), human(r.full.cfg.CacheBytes), f2(r.full.frac),
			pct(r.evictJCT()), pct(r.prefetchJCT()), pct(r.full.jct()),
			pct1(r.full.lru.HitRatio()), pct1(r.full.run.HitRatio()),
		})
		labels[i], vals[i] = r.full.spec.Name, r.full.jct()
	}
	if f.note != "" {
		return t.Render()
	}
	e, p, full := overallAverages(rows)
	t.Note = "Average normalized JCT: eviction-only " + pct(e) +
		", prefetch-only " + pct(p) + ", full MRD " + pct(full) +
		" (paper: 62%, 67%, 53%)"
	return t.Render() + barChart("\nFull MRD normalized JCT (shorter bar = bigger win):", labels, vals, pct, 1.0)
}

func (f overallFig) run() string { return f.render(f.rows()) }

// versusFig compares full MRD to a baseline policy on the baseline's
// own testbed (paper Figs 5 and 6). Each policy's best point over the
// cache sweep is taken independently — the paper compares "the best
// values from their experiments and ours".
type versusFig struct {
	heading   string
	baseline  PolicySpec
	cfg       cluster.Config
	paperNote string
}

type versusRow struct{ base, mrd point }

// improvement is how much faster MRD is than the baseline policy, both
// normalized to LRU at their own best cache size.
func (r versusRow) improvement() float64 { return 1 - r.mrd.jct()/r.base.jct() }

func (f versusFig) rows() []versusRow {
	return mapRows(suiteSpecs("SparkBench"), func(spec *workload.Spec) versusRow {
		s := scenario{spec, f.cfg}
		return versusRow{base: s.best(f.baseline), mrd: s.best(SpecMRD)}
	})
}

func (f versusFig) render(rows []versusRow) string {
	base := f.baseline.Name()
	t := Table{
		Title: f.heading,
		Header: []string{"Workload", base + " JCT", "MRD JCT",
			"MRD vs " + base, base + " hit", "MRD hit"},
	}
	var sum float64
	max := 0.0
	maxName := ""
	for _, r := range rows {
		imp := r.improvement()
		t.Rows = append(t.Rows, []string{
			r.mrd.spec.Name, pct(r.base.jct()), pct(r.mrd.jct()),
			pct1(imp), pct1(r.base.run.HitRatio()), pct1(r.mrd.run.HitRatio()),
		})
		sum += imp
		if imp > max {
			max, maxName = imp, r.mrd.spec.Name
		}
	}
	t.Note = "MRD improvement over " + base + ": average " + pct1(sum/float64(len(rows))) +
		", max " + pct1(max) + " (" + maxName + "). " + f.paperNote
	return t.Render()
}

func (f versusFig) run() string { return f.render(f.rows()) }

// fig7Point is one cache size in the SVD++ cache-size sweep (paper
// Fig 7).
type fig7Point struct {
	at            scenario
	lru, lrc, mrd metrics.Run
}

// fig7Result is the sweep plus the paper's cache-savings readout: the
// smallest total cache at which each policy reaches the target hit
// ratio.
type fig7Result struct {
	points                    []fig7Point
	targetHit                 float64
	lruNeed, lrcNeed, mrdNeed int64
}

// fig7 sweeps cache sizes for the SVD++ workload on the LRC cluster
// with LRU, LRC and MRD (paper §5.6). The target hit ratio for the
// savings computation is LRU's hit ratio at the middle of the sweep
// (the paper uses 68%).
func fig7() fig7Result {
	s := open("SVD", workload.Params{}, cluster.LRC())
	var res fig7Result
	for _, frac := range []float64{0.25, 0.4, 0.6, 0.85, 1.2, 1.8, 2.5} {
		at := s.sized(frac)
		res.points = append(res.points, fig7Point{at, at.under(SpecLRU), at.under(SpecLRC), at.under(SpecMRD)})
	}
	res.targetHit = res.points[len(res.points)/2].lru.HitRatio()
	res.lruNeed = cacheNeeded(res.points, res.targetHit, func(p fig7Point) metrics.Run { return p.lru })
	res.lrcNeed = cacheNeeded(res.points, res.targetHit, func(p fig7Point) metrics.Run { return p.lrc })
	res.mrdNeed = cacheNeeded(res.points, res.targetHit, func(p fig7Point) metrics.Run { return p.mrd })
	return res
}

// cacheNeeded returns the smallest total cache in the sweep at which
// the policy's hit ratio reaches the target (0 when never reached).
func cacheNeeded(points []fig7Point, target float64, run func(fig7Point) metrics.Run) int64 {
	for _, p := range points {
		if run(p).HitRatio() >= target {
			return p.at.cfg.TotalCache()
		}
	}
	return 0
}

func renderFig7(res fig7Result) string {
	t := Table{
		Title: "Figure 7: Effects of cache size on hit ratio and runtime, SVD++ (LRC cluster)",
		Header: []string{"TotalCache", "Cache/Node",
			"LRU hit", "LRC hit", "MRD hit", "LRU JCT", "LRC JCT", "MRD JCT"},
	}
	labels := make([]string, len(res.points))
	series := map[string][]float64{}
	for i, p := range res.points {
		labels[i] = human(p.at.cfg.TotalCache())
		t.Rows = append(t.Rows, []string{
			labels[i], human(p.at.cfg.CacheBytes),
			pct1(p.lru.HitRatio()), pct1(p.lrc.HitRatio()), pct1(p.mrd.HitRatio()),
			p.lru.JCTDuration().String(), p.lrc.JCTDuration().String(), p.mrd.JCTDuration().String(),
		})
		series["LRU"] = append(series["LRU"], p.lru.HitRatio())
		series["LRC"] = append(series["LRC"], p.lrc.HitRatio())
		series["MRD"] = append(series["MRD"], p.mrd.HitRatio())
	}
	saving := 0.0
	if res.lruNeed > 0 && res.mrdNeed > 0 {
		saving = 1 - float64(res.mrdNeed)/float64(res.lruNeed)
	}
	t.Note = fmt.Sprintf("Target hit ratio %s: LRU needs %s, LRC needs %s, MRD needs %s — %s cache-space savings (paper: 68%% target, 0.88 GB vs 0.33 GB, 63%% savings)",
		pct1(res.targetHit), human(res.lruNeed), human(res.lrcNeed), human(res.mrdNeed), pct1(saving))
	return t.Render() + seriesChart("\nHit ratio vs total cache:", labels, series, []string{"LRU", "LRC", "MRD"}, pct1)
}

// variantFig compares full MRD against one altered MRD configuration
// on two contrasting workloads (paper Figs 8 and 9), both normalized
// to LRU at the cache size where full MRD gains most.
type variantFig struct {
	heading      string
	aName, bName string
	variant      PolicySpec
	workloads    []string
	cfg          cluster.Config
	// context renders the workload property the figure varies on.
	context   func(*workload.Spec) string
	paperNote string
}

type variantRow struct {
	a point       // full MRD at its best cache size
	b metrics.Run // the variant at the same size
}

func (r variantRow) bJCT() float64 { return norm(r.b, r.a.lru) }

func (f variantFig) rows() []variantRow {
	return mapRows(f.workloads, func(name string) variantRow {
		a := open(name, workload.Params{}, f.cfg).best(SpecMRD)
		return variantRow{a: a, b: a.under(f.variant)}
	})
}

func (f variantFig) render(rows []variantRow) string {
	t := Table{
		Title: f.heading,
		Header: []string{"Workload", "Context", "Cache/Node",
			f.aName + " JCT", f.bName + " JCT", f.aName + " hit", f.bName + " hit"},
		Note: f.paperNote,
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.a.spec.Name, f.context(r.a.spec), human(r.a.cfg.CacheBytes),
			pct(r.a.jct()), pct(r.bJCT()), pct1(r.a.run.HitRatio()), pct1(r.b.HitRatio()),
		})
	}
	return t.Render()
}

func (f variantFig) run() string { return f.render(f.rows()) }

// fig10Row compares one iteration-parameterized workload at its
// default iteration count against triple iterations (paper §5.9):
// full MRD's best point over the cache sweep on each instance.
type fig10Row struct{ x1, x3 point }

// fig10 triples the iteration parameter of every workload that has one
// and measures how the extra jobs, stages and references change MRD's
// gains. The paper reports jobs +59%, stages +78%, average JCT 62%→54%
// and hit ratio 94%→96% — with diminishing returns.
func fig10(cfg cluster.Config) []fig10Row {
	var iterative []*workload.Spec
	for _, spec := range suiteSpecs("SparkBench") {
		if spec.Iterations != 0 { // TC has no iteration parameter
			iterative = append(iterative, spec)
		}
	}
	return mapRows(iterative, func(base *workload.Spec) fig10Row {
		tripled := open(base.Name, workload.Params{Iterations: 3 * base.Iterations}, cfg)
		return fig10Row{x1: scenario{base, cfg}.best(SpecMRD), x3: tripled.best(SpecMRD)}
	})
}

func renderFig10(rows []fig10Row) string {
	t := Table{
		Title: "Figure 10: Effects of iterations in workload (full MRD, JCT normalized to LRU)",
		Header: []string{"Workload", "Iters", "Iters x3", "Jobs", "Jobs x3",
			"Stages", "Stages x3", "JCT", "JCT x3", "Hit", "Hit x3"},
	}
	var j1, j3, h1, h3, jobGrowth, stageGrowth float64
	for _, r := range rows {
		s1, s3 := r.x1.spec, r.x3.spec
		jobs1, jobs3 := len(s1.Graph.Jobs), len(s3.Graph.Jobs)
		stages1, stages3 := s1.Graph.ActiveStages(), s3.Graph.ActiveStages()
		t.Rows = append(t.Rows, []string{
			s1.Name, itoa(s1.Iterations), itoa(s3.Iterations), itoa(jobs1), itoa(jobs3),
			itoa(stages1), itoa(stages3),
			pct(r.x1.jct()), pct(r.x3.jct()), pct1(r.x1.run.HitRatio()), pct1(r.x3.run.HitRatio()),
		})
		j1 += r.x1.jct()
		j3 += r.x3.jct()
		h1 += r.x1.run.HitRatio()
		h3 += r.x3.run.HitRatio()
		jobGrowth += float64(jobs3)/float64(jobs1) - 1
		stageGrowth += float64(stages3)/float64(stages1) - 1
	}
	n := float64(len(rows))
	t.Note = "Averages: jobs +" + pct(jobGrowth/n) + ", stages +" + pct(stageGrowth/n) +
		", JCT " + pct(j1/n) + " -> " + pct(j3/n) + ", hit " + pct1(h1/n) + " -> " + pct1(h3/n) +
		" (paper: jobs +59%, stages +78%, JCT 62% -> 54%, hit 94% -> 96%)"
	return t.Render()
}

// scatterFig relates each workload's JCT reduction under full MRD to
// one property of its DAG (paper Figs 11 and 12, §5.10). It asks the
// same runs as Fig 4, so the scatters and the bars describe one
// experiment.
type scatterFig struct {
	heading, xLabel string
	x               func(*workload.Spec) float64
	cfg             cluster.Config
	paperNote       string
}

// scatterPoint is one workload: the DAG property on X, the fraction of
// LRU's runtime MRD eliminated on Y.
type scatterPoint struct {
	workload     string
	x, reduction float64
}

// points places each workload's best full-MRD point on the figure's
// axes.
func (f scatterFig) points(fulls []point) []scatterPoint {
	pts := make([]scatterPoint, len(fulls))
	for i, full := range fulls {
		pts[i] = scatterPoint{full.spec.Name, f.x(full.spec), 1 - full.jct()}
	}
	return pts
}

func avgStageDistance(spec *workload.Spec) float64 {
	return refdist.FromGraph(spec.Graph).Stats().AvgStageDistance
}

func refsPerStage(spec *workload.Spec) float64 { return spec.Graph.Characterize().RefsPerStage }

// trend is an ordinary-least-squares fit of a scatter.
type trend struct{ slope, intercept, r2 float64 }

// ols fits y = slope*x + intercept and computes R².
func ols(points []scatterPoint) trend {
	n := float64(len(points))
	if n < 2 {
		return trend{}
	}
	var sx, sy, sxx, sxy, syy float64
	for _, p := range points {
		sx += p.x
		sy += p.reduction
		sxx += p.x * p.x
		sxy += p.x * p.reduction
		syy += p.reduction * p.reduction
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return trend{}
	}
	t := trend{slope: (n*sxy - sx*sy) / den}
	t.intercept = (sy - t.slope*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		t.r2 = 1
		return t
	}
	var ssRes float64
	for _, p := range points {
		e := p.reduction - (t.slope*p.x + t.intercept)
		ssRes += e * e
	}
	t.r2 = 1 - ssRes/ssTot
	return t
}

func (f scatterFig) render(pts []scatterPoint) string {
	t := Table{
		Title:  f.heading,
		Header: []string{"Workload", f.xLabel, "JCT reduction"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{p.workload, f2(p.x), pct1(p.reduction)})
	}
	tr := ols(pts)
	t.Note = fmt.Sprintf("Trendline: reduction = %.4f*x + %.4f, R²=%.2f. %s",
		tr.slope, tr.intercept, tr.r2, f.paperNote)
	return t.Render()
}

func (f scatterFig) run() string {
	fulls := mapRows(suiteSpecs("SparkBench"), func(spec *workload.Spec) point {
		return scenario{spec, f.cfg}.best(SpecMRD)
	})
	return f.render(f.points(fulls))
}
