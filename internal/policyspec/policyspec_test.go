package policyspec

import (
	"strings"
	"testing"

	"mrdspark/internal/core"
	"mrdspark/internal/dag"
)

// TestParse covers every name the front doors list (mrdspark.Policies
// is Names) plus the aliases' option toggles, the empty default, the
// options hand-through, and an unknown name — an error, never a panic.
func TestParse(t *testing.T) {
	base := core.Options{Metric: core.JobDistance}
	want := map[string]Spec{
		"LRU":          {Kind: "LRU"},
		"FIFO":         {Kind: "FIFO"},
		"LFU":          {Kind: "LFU"},
		"Hyperbolic":   {Kind: "Hyperbolic"},
		"GDS":          {Kind: "GDS"},
		"MemTune":      {Kind: "MemTune"},
		"MIN":          {Kind: "MIN"},
		"LRC":          {Kind: "LRC"},
		"MRD":          {Kind: "MRD", MRD: base},
		"MRD-evict":    {Kind: "MRD", MRD: core.Options{Metric: core.JobDistance, DisablePrefetch: true}},
		"MRD-prefetch": {Kind: "MRD", MRD: core.Options{Metric: core.JobDistance, DisableEviction: true}},
		"MRD-dynamic":  {Kind: "MRD", MRD: core.Options{Metric: core.JobDistance, DynamicThreshold: true}},
	}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want the %d names of the table", names, len(want))
	}
	g := dag.New()
	g.Count(g.Source("in", 2, 1<<10).Map("m").Cache())
	for _, name := range names {
		got, err := Parse(name, base, false)
		if err != nil {
			t.Errorf("Parse(%q): %v", name, err)
			continue
		}
		if got != want[name] {
			t.Errorf("Parse(%q) = %+v, want %+v", name, got, want[name])
		}
		if _, err := got.Build(g); err != nil {
			t.Errorf("Parse(%q).Build: %v", name, err)
		}
	}

	if got, err := Parse("", core.Options{}, true); err != nil || got != (Spec{Kind: "MRD", AdHoc: true}) {
		t.Errorf(`Parse("") = %+v, %v; want ad-hoc MRD`, got, err)
	}
	if _, err := Parse("nope", core.Options{}, false); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("unknown name: err = %v", err)
	}
	if _, err := (Spec{Kind: "MRD-evict"}).Build(g); err == nil {
		t.Error("Build resolved an alias: aliases are Parse's job, a spec carries the kind")
	}
}
