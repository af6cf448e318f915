package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
	"mrdspark/internal/core"
	"mrdspark/internal/dag"
	"mrdspark/internal/metrics"
	"mrdspark/internal/policy"
	"mrdspark/internal/refdist"
)

// randomApp builds a random but well-formed application: a source, a
// mix of narrow/wide transforms, some cached (MEMORY_AND_DISK so every
// read resolves to a hit or a promote), actions sprinkled through.
func randomApp(rng *rand.Rand) *dag.Graph {
	g := dag.New()
	rdds := []*dag.RDD{g.Source("in", 2+rng.Intn(4), int64(1+rng.Intn(8))<<10, dag.WithCost(10))}
	steps := 4 + rng.Intn(14)
	actions := 0
	for i := 0; i < steps; i++ {
		p := rdds[rng.Intn(len(rdds))]
		var r *dag.RDD
		switch rng.Intn(5) {
		case 0:
			r = p.Map(fmt.Sprintf("m%d", i), dag.WithCost(10))
		case 1:
			r = p.Filter(fmt.Sprintf("f%d", i), dag.WithSizeFactor(0.7), dag.WithCost(10))
		case 2:
			r = p.ReduceByKey(fmt.Sprintf("r%d", i), dag.WithCost(10))
		case 3:
			q := rdds[rng.Intn(len(rdds))]
			r = p.Union(fmt.Sprintf("u%d", i), q)
		case 4:
			r = p.GroupByKey(fmt.Sprintf("g%d", i), dag.WithSizeFactor(0.8), dag.WithCost(10))
		}
		if rng.Intn(3) == 0 {
			r.Persist(block.MemoryAndDisk)
		}
		rdds = append(rdds, r)
		if rng.Intn(3) == 0 {
			g.Count(r)
			actions++
		}
	}
	if actions == 0 {
		g.Count(rdds[len(rdds)-1])
	}
	return g
}

// policyNames is allFactories' key set in a fixed order: a test that
// walks the policies in map order runs them in a different order — or,
// if it stops early, a different policy — each time.
var policyNames = []string{"LRU", "FIFO", "LFU", "Hyperbolic", "GDS", "LRC", "MemTune", "MIN", "MRD", "MRD-adhoc"}

func allFactories(g *dag.Graph) map[string]policy.Factory {
	return map[string]policy.Factory{
		"LRU":        policy.NewLRU(),
		"FIFO":       policy.NewFIFO(),
		"LFU":        policy.NewLFU(),
		"Hyperbolic": policy.NewHyperbolic(),
		"GDS":        policy.NewGDS(),
		"LRC":        policy.NewLRC(g),
		"MemTune":    policy.NewMemTune(g),
		"MIN":        policy.NewMIN(g),
		"MRD": core.NewManager(g,
			core.NewRecurringProfiler(refdist.FromGraph(g)), core.Options{}),
		"MRD-adhoc": core.NewManager(g, core.NewAppProfiler(), core.Options{}),
	}
}

// TestCrossPolicyInvariants runs random applications under every
// policy and checks the laws that must hold regardless of eviction
// decisions:
//
//   - the run completes with the DAG's job/stage counts;
//   - hits + misses is identical across policies (the demand read
//     schedule is policy-independent when all blocks are restorable);
//   - with MEMORY_AND_DISK caching there are no recomputes;
//   - prefetch accounting never over-counts.
func TestCrossPolicyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		seed := rng.Int63()
		cl := tinyCluster(int64(2+rng.Intn(6)) << 10)
		var wantReads int64 = -1
		var wantJobs, wantStages int

		mk := func() *dag.Graph { return randomApp(rand.New(rand.NewSource(seed))) }
		for name, f := range allFactories(mk()) {
			g := mk() // fresh graph per run (factories bind to their own)
			factory := f
			if name == "LRC" || name == "MemTune" || name == "MIN" ||
				name == "MRD" || name == "MRD-adhoc" {
				// DAG-bound factories must be rebuilt against the
				// graph instance they run on.
				factory = allFactories(g)[name]
			}
			run, err := Run(g, cl, factory, "rand")
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if wantReads < 0 {
				wantReads = run.Hits + run.Misses
				wantJobs, wantStages = run.Jobs, run.StagesExecuted
			}
			if got := run.Hits + run.Misses; got != wantReads {
				t.Errorf("trial %d %s: reads = %d, other policies saw %d", trial, name, got, wantReads)
			}
			if run.Jobs != wantJobs || run.StagesExecuted != wantStages {
				t.Errorf("trial %d %s: workflow %d/%d, want %d/%d",
					trial, name, run.Jobs, run.StagesExecuted, wantJobs, wantStages)
			}
			if run.Recomputes != 0 {
				t.Errorf("trial %d %s: %d recomputes with restorable blocks", trial, name, run.Recomputes)
			}
			if run.PrefetchUsed+run.PrefetchWasted > run.PrefetchIssued {
				t.Errorf("trial %d %s: prefetch accounting broken: %d+%d > %d",
					trial, name, run.PrefetchUsed, run.PrefetchWasted, run.PrefetchIssued)
			}
			if run.JCT <= 0 || run.JCT > run.WallTime {
				t.Errorf("trial %d %s: time accounting broken: JCT=%d wall=%d",
					trial, name, run.JCT, run.WallTime)
			}
		}
	}
}

// TestOraclesDominateOnRandomApps: across random apps, the informed
// policies should not lose badly to uninformed ones on hit ratio in
// aggregate. Individual apps may favour anyone; the sum may not.
func TestOraclesDominateOnRandomApps(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	var minHits, lruHits, mrdHits float64
	for trial := 0; trial < 40; trial++ {
		seed := rng.Int63()
		cl := tinyCluster(int64(2+rng.Intn(4)) << 10)
		mk := func() *dag.Graph { return randomApp(rand.New(rand.NewSource(seed))) }

		g1 := mk()
		lru, err := Run(g1, cl, policy.NewLRU(), "rand")
		if err != nil {
			t.Fatal(err)
		}
		g2 := mk()
		min, err := Run(g2, cl, policy.NewMIN(g2), "rand")
		if err != nil {
			t.Fatal(err)
		}
		g3 := mk()
		mrd, err := Run(g3, cl, mrdFactory(g3, core.Options{DisablePrefetch: true}), "rand")
		if err != nil {
			t.Fatal(err)
		}
		lruHits += lru.HitRatio()
		minHits += min.HitRatio()
		mrdHits += mrd.HitRatio()
	}
	if minHits < lruHits-0.5 {
		t.Errorf("MIN aggregate hits %.2f well below LRU %.2f", minHits, lruHits)
	}
	if mrdHits < lruHits-0.5 {
		t.Errorf("MRD aggregate hits %.2f well below LRU %.2f", mrdHits, lruHits)
	}
}

// TestAuditAfterRandomRuns: the post-run consistency audit passes for
// every policy on random applications — all ten on every graph, each on
// its own instance of it (factories bind to their graph), in a fixed
// order, so a failure names a trial and a policy that fail again — and
// the observed run's aggregator counts the prefetch ledger the run
// reports, by stage and by node (DESIGN §4).
func TestAuditAfterRandomRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	audit := func(trial int, name string, s *Simulation) {
		agg := s.Observe()
		run := s.Run()
		if err := s.Audit(); err != nil {
			t.Errorf("trial %d %s: %v", trial, name, err)
		}
		want := [3]int64{run.PrefetchIssued, run.PrefetchUsed, run.PrefetchWasted}
		var byStage, byNode [3]int64
		for _, st := range agg.StageStats() {
			byStage[0] += st.PrefetchIssued
			byStage[1] += st.PrefetchUsed
			byStage[2] += st.PrefetchWasted
		}
		for _, n := range agg.NodeStats() {
			byNode[0] += n.PrefetchIssued
			byNode[1] += n.PrefetchUsed
			byNode[2] += n.PrefetchWasted
		}
		if byStage != want || byNode != want {
			t.Errorf("trial %d %s: issued/used/wasted: run %v, aggregator by stage %v, by node %v", trial, name, want, byStage, byNode)
		}
	}
	for trial := 0; trial < 15; trial++ {
		seed := rng.Int63()
		cl := tinyCluster(int64(2+rng.Intn(5)) << 10)
		for _, name := range policyNames {
			g := randomApp(rand.New(rand.NewSource(seed)))
			s, err := New(g, cl, allFactories(g)[name], "audit")
			if err != nil {
				t.Fatal(err)
			}
			audit(trial, name, s)
		}
		// And explicitly audit an MRD run with prefetching.
		g2 := randomApp(rand.New(rand.NewSource(seed)))
		s, err := New(g2, cl, mrdFactory(g2, core.Options{}), "audit-mrd")
		if err != nil {
			t.Fatal(err)
		}
		audit(trial, "MRD", s)
	}
}

// TestUnboundedCacheIsTheCeiling holds every policy to what the paper's
// setting implies when memory is no constraint, without consulting any
// table of distances or counts: nothing is ever evicted, so no prefetch
// is wasted; every block is still resident at its next reference, so
// there is nothing to prefetch and every policy reads LRU's hits and
// misses — except the ad-hoc profiler, which by design purges a block it
// cannot yet see a future reference to, and pays for it in hits; and a
// bounded cache can only do worse on the same demand reads. With no
// eviction to hold them down, the stores' tables grow past every size
// the pressure-bound tests reach.
func TestUnboundedCacheIsTheCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(2022))
	for trial := 0; trial < 60; trial++ {
		seed := rng.Int63()
		bounded := tinyCluster(int64(2+rng.Intn(6)) << 10)
		run := func(name string, cl cluster.Config) metrics.Run {
			g := randomApp(rand.New(rand.NewSource(seed)))
			fs := allFactories(g)
			if fs[name] == nil || len(fs) != len(policyNames) {
				t.Fatalf("policyNames and allFactories disagree at %q", name)
			}
			r, err := Run(g, cl, fs[name], "ceiling")
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			return r
		}
		ceiling := run("LRU", tinyCluster(1<<40))
		for _, name := range policyNames {
			open := run(name, tinyCluster(1<<40))
			if open.Evictions != 0 || open.PrefetchWasted != 0 {
				t.Errorf("trial %d %s, unbounded: %d evictions, %d wasted prefetches",
					trial, name, open.Evictions, open.PrefetchWasted)
			}
			if name != "MRD-adhoc" && (open.PrefetchIssued != 0 || open.Hits != ceiling.Hits || open.Misses != ceiling.Misses) {
				t.Errorf("trial %d %s, unbounded: %d prefetches, %d hits / %d misses; LRU reads %d / %d",
					trial, name, open.PrefetchIssued, open.Hits, open.Misses, ceiling.Hits, ceiling.Misses)
			}
			tight := run(name, bounded)
			if tight.Hits > ceiling.Hits || open.Hits > ceiling.Hits {
				t.Errorf("trial %d %s: %d hits in %d bytes, %d unbounded, above the ceiling of %d",
					trial, name, tight.Hits, bounded.CacheBytes, open.Hits, ceiling.Hits)
			}
			if reads := ceiling.Hits + ceiling.Misses; tight.Hits+tight.Misses != reads || open.Hits+open.Misses != reads {
				t.Errorf("trial %d %s: %d reads bounded, %d unbounded; LRU unbounded made %d",
					trial, name, tight.Hits+tight.Misses, open.Hits+open.Misses, reads)
			}
		}
	}
}

func TestAuditBeforeRunErrors(t *testing.T) {
	g, _ := cachedReuseGraph(block.MemoryAndDisk)
	s, err := New(g, tinyCluster(1<<20), policy.NewLRU(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Audit(); err == nil {
		t.Error("Audit before Run did not error")
	}
}
