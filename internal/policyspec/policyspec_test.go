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
		f, err := got.Build(g)
		if err != nil {
			t.Errorf("Parse(%q).Build: %v", name, err)
			continue
		}
		// One name: what the spec is called is what the policy it builds
		// reports, and for a variant without an option of its own riding
		// along (the dynamic threshold has no name) the name Parse took.
		if f.Name() != got.Name() {
			t.Errorf("Parse(%q): the spec is named %q, the policy it builds %q", name, got.Name(), f.Name())
		}
		if plain, _ := Parse(name, core.Options{}, false); plain.Name() != name && name != "MRD-dynamic" {
			t.Errorf("Parse(%q).Name() = %q", name, plain.Name())
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
