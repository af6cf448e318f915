package fault

import (
	"fmt"
	"sort"
)

// Presets are named chaos schedules scaled to a cluster (node count)
// and an application (planned executed-stage count), so the same
// preset name stresses a 3-stage toy DAG and a 60-stage SVD++ run at
// the same relative points. All presets use Seed 42 by default;
// callers may override any field afterwards.

// presetBuilders maps preset names to constructors.
var presetBuilders = map[string]func(nodes, stages int) *Schedule{
	"healthy": func(nodes, stages int) *Schedule {
		return &Schedule{Seed: 42}
	},
	// crash: one permanent node loss at the halfway mark — the paper's
	// §4.4 scenario, previously the only fault the simulator knew.
	"crash": func(nodes, stages int) *Schedule {
		return &Schedule{Seed: 42, Events: []Event{
			{Stage: at(stages, 0.5), Kind: NodeCrash, Node: 1 % nodes},
		}}
	},
	// crash-rejoin: the node comes back empty after a few stages, so
	// the run sees both the down window and the re-warm.
	"crash-rejoin": func(nodes, stages int) *Schedule {
		return &Schedule{Seed: 42, Events: []Event{
			{Stage: at(stages, 0.4), Kind: NodeCrash, Node: 1 % nodes,
				RejoinAfter: span(stages, 0.15, 2)},
		}}
	},
	// rolling: two different nodes lost at the 1/3 and 2/3 marks —
	// the multi-failure case a single crash cannot express.
	"rolling": func(nodes, stages int) *Schedule {
		second := 2 % nodes
		return &Schedule{Seed: 42, Events: []Event{
			{Stage: at(stages, 0.33), Kind: NodeCrash, Node: 1 % nodes},
			{Stage: at(stages, 0.66), Kind: NodeCrash, Node: second},
		}}
	},
	// stragglers: no data loss, but one node's disk and another's NIC
	// degrade for a window — stresses the prefetcher's background I/O.
	"stragglers": func(nodes, stages int) *Schedule {
		return &Schedule{Seed: 42, Events: []Event{
			{Stage: at(stages, 0.25), Kind: Straggler, Node: 0,
				DiskFactor: 4, NetFactor: 1, Duration: span(stages, 0.25, 2)},
			{Stage: at(stages, 0.5), Kind: Straggler, Node: 1 % nodes,
				DiskFactor: 1, NetFactor: 4, Duration: span(stages, 0.25, 2)},
		}}
	},
	// flaky-fetch: every remote fetch fails with 10% probability and
	// retries with exponential backoff; no node ever dies.
	"flaky-fetch": func(nodes, stages int) *Schedule {
		return &Schedule{Seed: 42, FetchFailureRate: 0.1}
	},
	// chaos: the escalation ladder's top rung — a crash-and-rejoin, a
	// second permanent crash, a straggler window and flaky fetches all
	// in one run.
	"chaos": func(nodes, stages int) *Schedule {
		second := 2 % nodes
		return &Schedule{
			Seed:             42,
			FetchFailureRate: 0.05,
			Events: []Event{
				{Stage: at(stages, 0.3), Kind: NodeCrash, Node: 1 % nodes,
					RejoinAfter: span(stages, 0.2, 2)},
				{Stage: at(stages, 0.45), Kind: Straggler, Node: 0,
					DiskFactor: 3, NetFactor: 2, Duration: span(stages, 0.2, 2)},
				{Stage: at(stages, 0.7), Kind: NodeCrash, Node: second},
			},
		}
	},
}

// at converts a fraction of the planned stages to an executed-stage
// index, clamped so the event can actually fire (stage 1..stages-1).
func at(stages int, frac float64) int {
	s := int(float64(stages) * frac)
	if s < 1 {
		s = 1
	}
	if stages > 1 && s >= stages {
		s = stages - 1
	}
	return s
}

// span converts a fraction of the planned stages to a window length
// with a floor.
func span(stages int, frac float64, min int) int {
	s := int(float64(stages) * frac)
	if s < min {
		s = min
	}
	return s
}

// PresetNames lists the available presets, sorted, "healthy" first.
func PresetNames() []string {
	names := make([]string, 0, len(presetBuilders))
	for n := range presetBuilders {
		if n != "healthy" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return append([]string{"healthy"}, names...)
}

// Preset builds a named schedule scaled to the cluster size and the
// application's planned executed-stage count.
func Preset(name string, nodes, stages int) (*Schedule, error) {
	b, ok := presetBuilders[name]
	if !ok {
		return nil, fmt.Errorf("fault: unknown preset %q (have %v)", name, PresetNames())
	}
	if nodes < 1 {
		return nil, fmt.Errorf("fault: preset %q: need at least one node", name)
	}
	if stages < 1 {
		return nil, fmt.Errorf("fault: preset %q: need at least one planned stage", name)
	}
	s := b(nodes, stages)
	if err := s.Validate(nodes); err != nil {
		return nil, fmt.Errorf("fault: preset %q invalid: %w", name, err)
	}
	return s, nil
}
