package workload

import (
	"runtime"
	"testing"
)

// buildD4 generates the benchmark's advise-fresh and sim-* DAG set —
// SCC, LP, KM and PO: 1 197 RDDs, 261 stages that execute and 2 177
// counted once per job that uses them — once.
func buildD4(tb testing.TB, seed int64) {
	tb.Helper()
	for _, name := range []string{"SCC", "LP", "KM", "PO"} {
		if _, err := Build(name, Params{Seed: seed}); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestBuildAllocationBudget holds what building the D4 DAG set at seed
// 0 may allocate, on any hardware: every advisory session, simulated
// run and executed run builds its DAG, so the scheduler's walks are on
// all three paths. 4 846 objects and 420 KB measured, the budgets about
// a tenth above; 11 592 objects and 2 394 KB while every walk built a
// map, recursed through a closure and sorted by reflection.
func TestBuildAllocationBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a budget; the race detector's instrumentation allocates too")
	}
	buildD4(t, 0) // the registry and the generators' lazy state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	buildD4(t, 0)
	runtime.ReadMemStats(&after)
	objs, kb := after.Mallocs-before.Mallocs, (after.TotalAlloc-before.TotalAlloc)>>10
	t.Logf("D4 build: %d objects, %d KB", objs, kb)
	if objs > 5_300 {
		t.Errorf("building D4 allocated %d objects, budget 5300", objs)
	}
	if kb > 470 {
		t.Errorf("building D4 allocated %d KB, budget 470", kb)
	}
}

// BenchmarkBuildD4 is the loop for work on the scheduler: one op builds
// the D4 DAG set.
func BenchmarkBuildD4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildD4(b, 1)
	}
}
