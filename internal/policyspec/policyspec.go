// Package policyspec names cache policies: the one table that maps a
// policy name to its constructor, and the one alias table for the MRD
// variants. Everything that selects a policy by name — the facade, the
// CLIs, the advisory service, the execution engine and the experiment
// suite — goes through it. It sits beside internal/policy rather than
// inside it because the MRD constructor lives in internal/core, which
// itself imports policy.
package policyspec

import (
	"fmt"
	"sort"

	"mrdspark/internal/core"
	"mrdspark/internal/dag"
	"mrdspark/internal/policy"
	"mrdspark/internal/refdist"
	"mrdspark/internal/workload"
)

// Spec identifies one policy configuration.
type Spec struct {
	// Kind selects the policy family: LRU, FIFO, LFU, Hyperbolic, GDS,
	// LRC, MemTune, MIN, or MRD.
	Kind string
	// MRD holds the MRD variant options (Kind == "MRD").
	MRD core.Options
	// AdHoc runs DAG-aware policies (MRD, LRC) without a recurring
	// profile: they learn the DAG one job at a time.
	AdHoc bool
	// Label overrides the reported policy name.
	Label string
}

// The configurations callers name at compile time: the evaluation
// suite's baselines and the paper's three MRD variants.
var (
	LRU             = Spec{Kind: "LRU"}
	LRC             = Spec{Kind: "LRC"}
	MemTune         = Spec{Kind: "MemTune"}
	MIN             = Spec{Kind: "MIN"}
	MRD             = Spec{Kind: "MRD"}
	MRDEvictOnly    = Spec{Kind: "MRD", MRD: core.Options{DisablePrefetch: true}}
	MRDPrefetchOnly = Spec{Kind: "MRD", MRD: core.Options{DisableEviction: true}}
)

// builders maps each policy kind to its constructor.
var builders = map[string]func(p Spec, g *dag.Graph) policy.Factory{
	"LRU":        func(Spec, *dag.Graph) policy.Factory { return policy.NewLRU() },
	"FIFO":       func(Spec, *dag.Graph) policy.Factory { return policy.NewFIFO() },
	"LFU":        func(Spec, *dag.Graph) policy.Factory { return policy.NewLFU() },
	"Hyperbolic": func(Spec, *dag.Graph) policy.Factory { return policy.NewHyperbolic() },
	"GDS":        func(Spec, *dag.Graph) policy.Factory { return policy.NewGDS() },
	"MemTune":    func(_ Spec, g *dag.Graph) policy.Factory { return policy.NewMemTune(g) },
	"MIN":        func(_ Spec, g *dag.Graph) policy.Factory { return policy.NewMIN(g) },
	"LRC": func(p Spec, g *dag.Graph) policy.Factory {
		if p.AdHoc {
			return policy.NewLRCAdHoc()
		}
		return policy.NewLRC(g)
	},
	// The paper's policy: an AppProfiler in the configured mode feeding
	// an MRDManager.
	"MRD": func(p Spec, g *dag.Graph) policy.Factory {
		var prof *core.AppProfiler
		if p.AdHoc {
			prof = core.NewAppProfiler()
		} else {
			prof = core.NewRecurringProfiler(refdist.FromGraph(g))
		}
		return core.NewManager(g, prof, p.MRD)
	},
}

// aliases maps the MRD variant names onto the option each one sets on
// the MRD kind.
var aliases = map[string]func(*core.Options){
	"MRD-evict":    func(o *core.Options) { o.DisablePrefetch = true },
	"MRD-prefetch": func(o *core.Options) { o.DisableEviction = true },
	"MRD-dynamic":  func(o *core.Options) { o.DynamicThreshold = true },
}

// Names returns every name Parse accepts, sorted.
func Names() []string {
	names := make([]string, 0, len(builders)+len(aliases))
	for name := range builders {
		names = append(names, name)
	}
	for name := range aliases {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Parse resolves a policy name — a kind or one of the MRD-* aliases;
// empty means "MRD" — into a spec. mrd tunes the MRD variants and is
// ignored for other kinds; adHoc selects the no-recurring-profile mode
// of the DAG-aware policies.
func Parse(name string, mrd core.Options, adHoc bool) (Spec, error) {
	if name == "" {
		name = "MRD"
	}
	p := Spec{Kind: name, AdHoc: adHoc}
	if set, ok := aliases[name]; ok {
		p.Kind = "MRD"
		set(&mrd)
	}
	if _, ok := builders[p.Kind]; !ok {
		return Spec{}, fmt.Errorf("unknown policy %q (have %v)", name, Names())
	}
	if p.Kind == "MRD" {
		p.MRD = mrd
	}
	return p, nil
}

// Build instantiates the policy factory for a DAG.
func (p Spec) Build(g *dag.Graph) (policy.Factory, error) {
	b, ok := builders[p.Kind]
	if !ok {
		return nil, fmt.Errorf("unknown policy kind %q", p.Kind)
	}
	return b(p, g), nil
}

// Factory is Build for callers whose specs are compile-time constants
// (the experiment suite, the benchmark): an unknown kind panics.
func (p Spec) Factory(spec *workload.Spec) policy.Factory {
	f, err := p.Build(spec.Graph)
	if err != nil {
		panic("policyspec: " + err.Error())
	}
	return f
}

// Name returns the display name for result tables: the label, or the
// name the instantiated policy reports.
func (p Spec) Name() string {
	switch {
	case p.Label != "":
		return p.Label
	case p.Kind == "MRD":
		return p.MRD.Name(p.AdHoc)
	}
	return p.Kind
}
