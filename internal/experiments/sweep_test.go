package experiments

import (
	"bytes"
	"runtime"
	"testing"

	"mrdspark/internal/cluster"
)

// tinySweep is the differential-test grid: 8 points, small enough to
// simulate repeatedly but crossing every axis the renderer aggregates
// over (two workloads, the LRU anchor plus MRD, healthy plus a fault
// leg).
func tinySweep() SweepConfig {
	return SweepConfig{
		Workloads: []string{"KM", "CC"},
		Seeds:     []int64{0},
		Clusters:  []cluster.Config{cluster.Main()},
		Fractions: []float64{0.6},
		Policies:  []PolicySpec{SpecLRU, SpecMRD},
		Presets:   []string{"healthy", "crash"},
		Repls:     []int{1},
	}
}

// TestSweepDeterminism is the fabric's core acceptance proof: the
// consolidated report is byte-identical whether the grid ran on one
// worker or on GOMAXPROCS workers, and whether the run memo started
// cold or already held every point — cache state never leaks into the
// report.
func TestSweepDeterminism(t *testing.T) {
	cfg := tinySweep()

	ResetRunCache()
	defer ResetRunCache()
	one, err := RunSweep(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	htmlOne := RenderSweepHTML(one)
	if len(one.Rows) != len(cfg.Grid()) {
		t.Fatalf("sweep produced %d rows for a %d-point grid", len(one.Rows), len(cfg.Grid()))
	}

	ResetRunCache()
	many, err := RunSweep(cfg, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if many.Stats.Simulated == 0 {
		t.Fatal("cold leg simulated nothing; the memo was not cold")
	}

	// Warm leg: the same grid again in the same process.
	warm, err := RunSweep(cfg, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Simulated != 0 {
		t.Fatalf("warm leg re-simulated %d points (stats: %s)", warm.Stats.Simulated, warm.Stats)
	}

	for name, res := range map[string]*SweepResult{"GOMAXPROCS-worker": many, "warm": warm} {
		if html := RenderSweepHTML(res); !bytes.Equal(htmlOne, html) {
			t.Errorf("1-worker and %s reports differ (%d vs %d bytes)", name, len(htmlOne), len(html))
		}
	}
}

func TestGridCanonicalIndices(t *testing.T) {
	grid := tinySweep().Grid()
	if len(grid) != 8 {
		t.Fatalf("tiny grid has %d points, want 8", len(grid))
	}
	for i, pt := range grid {
		if pt.Index != i {
			t.Fatalf("grid[%d].Index = %d", i, pt.Index)
		}
	}
	// Innermost axis varies fastest: adjacent points differ in preset
	// before policy.
	if grid[0].Preset != "healthy" || grid[1].Preset != "crash" {
		t.Fatalf("enumeration order changed: %+v, %+v", grid[0], grid[1])
	}
	if grid[0].Policy.Name() != grid[1].Policy.Name() {
		t.Fatal("preset must vary before policy in the canonical order")
	}
}
