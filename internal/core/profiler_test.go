package core

import (
	"testing"

	"mrdspark/internal/refdist"
)

func TestAdHocProfilerAccumulates(t *testing.T) {
	g, _, _, _ := testGraph(t)
	p := NewAppProfiler()
	if p.Mode() != AdHoc {
		t.Fatalf("mode = %v", p.Mode())
	}
	for _, j := range g.Jobs {
		p.ParseDAG(j)
	}
	if !p.Profile().Equal(refdist.FromGraph(g)) {
		t.Error("ad-hoc profile differs from whole-graph profile after all jobs")
	}
}

func TestRecurringProfilerKeepsItsProfile(t *testing.T) {
	g, _, _, _ := testGraph(t)
	whole := refdist.FromGraph(g)
	p := NewRecurringProfiler(whole)
	if p.Mode() != Recurring {
		t.Fatalf("mode = %v", p.Mode())
	}
	version := whole.Version()
	for _, j := range g.Jobs {
		p.ParseDAG(j)
	}
	if p.Profile() != whole || whole.Version() != version {
		t.Error("recurring ParseDAG replaced or grew the whole-application profile")
	}
}

func TestModeAndMetricStrings(t *testing.T) {
	if AdHoc.String() != "ad-hoc" || Recurring.String() != "recurring" {
		t.Error("mode strings wrong")
	}
	if StageDistance.String() != "stage" || JobDistance.String() != "job" {
		t.Error("metric strings wrong")
	}
}
