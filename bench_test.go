package mrdspark

// Unit-level micro-benchmarks for the simulator's hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// End-to-end configurations (a simulated run, the sweep fabric, the
// advice and execution paths) are measured by the benchmark/ module;
// the figure drivers are exercised — and their output pinned against
// EXPERIMENTS.md — by internal/experiments' tests.

import (
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
	"mrdspark/internal/core"
	"mrdspark/internal/dag"
	"mrdspark/internal/obs"
	"mrdspark/internal/policy"
	"mrdspark/internal/refdist"
	"mrdspark/internal/sim"
	"mrdspark/internal/workload"
)

// BenchmarkSimulateSCC measures one full simulated run of the paper's
// best-case workload under full MRD.
func BenchmarkSimulateSCC(b *testing.B) {
	cfg := cluster.Main().WithCache(160 << 20)
	for i := 0; i < b.N; i++ {
		spec, _ := workload.Build("SCC", workload.Params{})
		mgr := core.NewManager(spec.Graph,
			core.NewRecurringProfiler(refdist.FromGraph(spec.Graph)), core.Options{})
		if _, err := sim.Run(spec.Graph, cfg, mgr, "SCC"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateSCCLRU is the baseline-policy twin of the above.
func BenchmarkSimulateSCCLRU(b *testing.B) {
	cfg := cluster.Main().WithCache(160 << 20)
	for i := 0; i < b.N; i++ {
		spec, _ := workload.Build("SCC", workload.Params{})
		if _, err := sim.Run(spec.Graph, cfg, policy.NewLRU(), "SCC"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildLP measures DAG construction for the largest workload.
func BenchmarkBuildLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec, err := workload.Build("LP", workload.Params{})
		if err != nil || len(spec.Graph.Jobs) == 0 {
			b.Fatal("build failed")
		}
	}
}

// BenchmarkProfileFromGraph measures reference-distance extraction —
// the AppProfiler's parseDAG cost the paper's §4.4 claims is small.
func BenchmarkProfileFromGraph(b *testing.B) {
	spec, _ := workload.Build("SCC", workload.Params{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := refdist.FromGraph(spec.Graph)
		if len(p.RDDs()) == 0 {
			b.Fatal("empty profile")
		}
	}
}

// BenchmarkMRDTableRefresh measures the per-stage newReferenceDistance
// update over the biggest MRD_Table in the suite.
func BenchmarkMRDTableRefresh(b *testing.B) {
	spec, _ := workload.Build("SCC", workload.Params{})
	mgr := core.NewManager(spec.Graph,
		core.NewRecurringProfiler(refdist.FromGraph(spec.Graph)), core.Options{DisablePrefetch: true})
	stages := spec.Graph.ExecutedStages()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := stages[i%len(stages)]
		mgr.OnStageStart(s.ID, s.FirstJob.ID)
	}
}

// BenchmarkVictimSelection measures per-eviction policy cost with a
// populated store.
func BenchmarkVictimSelection(b *testing.B) {
	for _, mk := range []struct {
		name string
		f    policy.Factory
	}{
		{"LRU", policy.NewLRU()},
		{"LFU", policy.NewLFU()},
	} {
		b.Run(mk.name, func(b *testing.B) {
			n := mk.f.NewNodePolicy(0)
			g := dag.New()
			r := g.Source("in", 512, 1<<20)
			for p := 0; p < 512; p++ {
				n.OnAdd(r.Block(p))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := n.Victim(func(block.ID) bool { return true }); !ok {
					b.Fatal("no victim")
				}
			}
		})
	}
}

// BenchmarkEngine measures raw event throughput of the DES core.
func BenchmarkEngine(b *testing.B) {
	e := sim.NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			e.After(1, tick)
		}
	}
	b.ResetTimer()
	e.After(1, tick)
	e.Run()
}

// BenchmarkObsEmitDisabled is the acceptance guard for the event bus:
// with no subscribers (the default — no recorder attached, no
// Observe), Emit on the hot path must cost two compares and zero
// allocations. A regression here taxes every simulated cache access.
func BenchmarkObsEmitDisabled(b *testing.B) {
	bus := obs.New()
	ev := obs.BlockEv(obs.KindHit, 3, block.ID{RDD: 7, Partition: 9}, 4096).
		WithValue(12).WithVerdict("mrd")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Emit(ev)
	}
	if n := testing.AllocsPerRun(1000, func() { bus.Emit(ev) }); n != 0 {
		b.Fatalf("disabled Emit allocates %.1f per call", n)
	}
}

// BenchmarkSimulateSCCObserved is BenchmarkSimulateSCC with the full
// observability pipeline attached (recorder + streaming aggregator);
// the delta to the plain benchmark is the cost of observing a run.
func BenchmarkSimulateSCCObserved(b *testing.B) {
	cfg := cluster.Main().WithCache(160 << 20)
	for i := 0; i < b.N; i++ {
		spec, _ := workload.Build("SCC", workload.Params{})
		mgr := core.NewManager(spec.Graph,
			core.NewRecurringProfiler(refdist.FromGraph(spec.Graph)), core.Options{})
		s, err := sim.New(spec.Graph, cfg, mgr, "SCC")
		if err != nil {
			b.Fatal(err)
		}
		obs.NewRecorder().Attach(s.Bus())
		agg := s.Observe()
		s.Run()
		if len(agg.StageStats()) == 0 {
			b.Fatal("no stages observed")
		}
	}
}
