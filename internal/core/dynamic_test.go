package core

import (
	"testing"
)

func TestControllerBacksOffOnWaste(t *testing.T) {
	c := newThresholdController(0.25)
	c.update(1, 20) // 95% waste
	if c.threshold <= 0.25 {
		t.Errorf("threshold = %v, want raised above 0.25", c.threshold)
	}
	if c.horizon >= dynInitialHorizon {
		t.Errorf("horizon = %v, want narrowed below %d", c.horizon, dynInitialHorizon)
	}
	if c.Adjustments != 1 {
		t.Errorf("adjustments = %d", c.Adjustments)
	}
}

func TestControllerGrowsOnAccuracy(t *testing.T) {
	c := newThresholdController(0.25)
	c.update(100, 2) // ~2% waste
	if c.threshold >= 0.25 {
		t.Errorf("threshold = %v, want lowered", c.threshold)
	}
	if c.horizon <= dynInitialHorizon {
		t.Errorf("horizon = %v, want widened", c.horizon)
	}
}

func TestControllerIgnoresSmallSamples(t *testing.T) {
	c := newThresholdController(0.25)
	c.update(1, 2) // 3 outcomes < dynMinSample
	if c.Adjustments != 0 || c.threshold != 0.25 {
		t.Errorf("adjusted on a tiny sample: %+v", c)
	}
	// The unconsumed outcomes still count toward the next window.
	c.update(2, 8) // cumulative: 10 outcomes, 80% waste
	if c.Adjustments != 1 {
		t.Errorf("did not adjust once the sample filled: %+v", c)
	}
}

func TestControllerClamps(t *testing.T) {
	c := newThresholdController(0.25)
	// Hammer waste until both controls pin at their bounds.
	for i := 1; i <= 50; i++ {
		c.update(int64(i), int64(i*100))
	}
	if c.threshold != dynMaxThreshold {
		t.Errorf("threshold = %v, want clamped at %v", c.threshold, dynMaxThreshold)
	}
	if c.horizon != dynMinHorizon {
		t.Errorf("horizon = %v, want clamped at %v", c.horizon, dynMinHorizon)
	}
	// And back down on sustained accuracy.
	base := int64(10000)
	for i := int64(1); i <= 200; i++ {
		c.update(base+i*100, base/100)
	}
	if c.threshold != dynMinThreshold {
		t.Errorf("threshold = %v, want clamped at %v", c.threshold, dynMinThreshold)
	}
	if c.horizon != dynMaxHorizon {
		t.Errorf("horizon = %v, want clamped at %v", c.horizon, dynMaxHorizon)
	}
}

func TestControllerSteadyStateUntouched(t *testing.T) {
	c := newThresholdController(0.25)
	c.update(80, 20) // 20% waste: between the bands
	if c.Adjustments != 0 {
		t.Errorf("adjusted inside the dead band: %+v", c)
	}
}

func TestManagerDynamicThresholdWiring(t *testing.T) {
	g, near, _, _ := testGraph(t)
	m := NewManager(g, NewRecurringProfiler(profileOf(g)), Options{DynamicThreshold: true})
	ops := newFakeOps(m, 1, 1<<30)
	ops.onDisk[near.Block(0)] = true

	// Report heavy waste, then advance a stage: the threshold rises.
	ops.used, ops.wasted = 1, 50
	m.OnStageStart(2, 2)
	v, adj := m.Threshold()
	if adj == 0 || v <= 0.25 {
		t.Errorf("threshold not adapted: v=%v adj=%d", v, adj)
	}
}

func TestDynamicHorizonGatesCandidates(t *testing.T) {
	g, near, far, _ := testGraph(t)
	m := NewManager(g, NewRecurringProfiler(profileOf(g)), Options{DynamicThreshold: true})
	ops := newFakeOps(m, 1, 1<<30)
	ops.onDisk[near.Block(0)] = true
	ops.onDisk[far.Block(0)] = true

	// Crush the horizon to 1 with sustained waste reports (each stage
	// must bring fresh outcomes for the controller to act on).
	for i := int64(1); i <= 10; i++ {
		ops.used, ops.wasted = i, i*1000
		m.OnStageStart(0, 0)
	}
	ops.prefetched = nil
	m.OnStageStart(2, 2) // near d=1, far d=3
	for _, p := range ops.prefetched {
		if p.ID.RDD == far.ID {
			t.Errorf("far block prefetched beyond the horizon: %v", ops.prefetched)
		}
	}
	if len(ops.prefetched) == 0 {
		t.Error("imminent block not prefetched despite horizon 1")
	}
}
