package experiments

import (
	"math"
	"strings"
	"testing"

	"mrdspark/internal/cluster"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/refdist"
	"mrdspark/internal/workload"
)

func TestOLSPerfectLine(t *testing.T) {
	pts := []scatterPoint{{x: 1, reduction: 3}, {x: 2, reduction: 5}, {x: 3, reduction: 7}}
	tr := ols(pts)
	if math.Abs(tr.slope-2) > 1e-9 || math.Abs(tr.intercept-1) > 1e-9 {
		t.Errorf("fit = %+v, want slope 2 intercept 1", tr)
	}
	if math.Abs(tr.r2-1) > 1e-9 {
		t.Errorf("R² = %v, want 1", tr.r2)
	}
}

func TestOLSKnownFit(t *testing.T) {
	// y = x with one outlier; R² strictly between 0 and 1.
	pts := []scatterPoint{
		{x: 1, reduction: 1}, {x: 2, reduction: 2}, {x: 3, reduction: 3}, {x: 4, reduction: 0},
	}
	tr := ols(pts)
	if tr.r2 <= 0 || tr.r2 >= 1 {
		t.Errorf("R² = %v, want in (0,1)", tr.r2)
	}
}

func TestOLSDegenerateInputs(t *testing.T) {
	if tr := ols(nil); tr != (trend{}) {
		t.Errorf("empty fit = %+v", tr)
	}
	if tr := ols([]scatterPoint{{x: 5, reduction: 1}}); tr != (trend{}) {
		t.Errorf("single-point fit = %+v", tr)
	}
	// Vertical line: zero denominator.
	pts := []scatterPoint{{x: 2, reduction: 1}, {x: 2, reduction: 9}}
	if tr := ols(pts); tr != (trend{}) {
		t.Errorf("vertical fit = %+v", tr)
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{
		Title:  "T",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"xxxxx", "y"}},
		Note:   "note",
	}
	out := tbl.Render()
	for _, want := range []string{"T\n", "a", "bbbb", "xxxxx", "note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[1], "a    ") {
		t.Errorf("columns not aligned: %q", lines[1])
	}
}

func TestHumanBytes(t *testing.T) {
	for _, tt := range []struct {
		in   int64
		want string
	}{
		{500, "500B"}, {2 << 10, "2K"}, {3 << 20, "3.0M"}, {934 << 20, "934M"},
		{5632 << 20, "5.5G"}, {20 << 30, "20G"},
	} {
		if got := human(tt.in); got != tt.want {
			t.Errorf("human(%d) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestTable1CoversAllWorkloadsWithPaperValues(t *testing.T) {
	rows := table1()
	if len(rows) != 20 {
		t.Fatalf("Table1 rows = %d, want 20", len(rows))
	}
	for _, r := range rows {
		if _, ok := paperTable1[r.spec.Name]; !ok {
			t.Errorf("no paper reference for %s", r.spec.Name)
		}
	}
	out := renderTable1(rows)
	if !strings.Contains(out, "SCC") || !strings.Contains(out, "HB-KMeans") {
		t.Error("render incomplete")
	}
}

func TestFig2TraceInvariants(t *testing.T) {
	tr := fig2("CC")
	if len(tr.RDDs) == 0 || len(tr.Stages) == 0 {
		t.Fatal("empty trace")
	}
	for _, sid := range tr.Stages {
		for _, rid := range tr.RDDs {
			c := tr.Cells[sid][rid]
			if !c.Exists {
				if c.Referenced {
					t.Fatalf("stage %d references non-existent RDD %d", sid, rid)
				}
				continue
			}
			if c.Referenced {
				// A referenced RDD has MRD distance 0 at that stage.
				if c.MRDDistance != 0 {
					t.Errorf("stage %d RDD %d referenced with distance %d", sid, rid, c.MRDDistance)
				}
				if c.LRCCount <= 0 {
					t.Errorf("stage %d RDD %d referenced with count %d", sid, rid, c.LRCCount)
				}
			}
			if c.LRUAge < 0 {
				t.Errorf("negative LRU age at stage %d RDD %d", sid, rid)
			}
			if !refdist.IsInfinite(c.MRDDistance) && c.LRCCount == 0 {
				t.Errorf("stage %d RDD %d: finite distance %d but zero count", sid, rid, c.MRDDistance)
			}
		}
	}
	out := renderFig2(tr, 6)
	if !strings.Contains(out, "stage") || !strings.Contains(out, "inf") {
		t.Error("Fig2 render incomplete")
	}
}

func TestPolicySpecFactoryNames(t *testing.T) {
	spec, err := workload.Build("SP", workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		p    PolicySpec
		want string
	}{
		{SpecLRU, "LRU"},
		{SpecLRC, "LRC"},
		{policyspec.MemTune, "MemTune"},
		{policyspec.MIN, "MIN"},
		{SpecMRD, "MRD"},
		{policyspec.MRDEvictOnly, "MRD-evict"},
		{policyspec.MRDPrefetchOnly, "MRD-prefetch"},
		{PolicySpec{Kind: "MRD", AdHoc: true}, "MRD(ad-hoc)"},
		{PolicySpec{Kind: "LRU", Label: "custom"}, "custom"},
	} {
		if got := tt.p.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
		if f := tt.p.Factory(spec); f == nil {
			t.Errorf("%s factory nil", tt.want)
		}
	}
}

func TestUnknownPolicyKindPanics(t *testing.T) {
	spec, _ := workload.Build("SP", workload.Params{})
	defer func() {
		if recover() == nil {
			t.Error("unknown kind did not panic")
		}
	}()
	PolicySpec{Kind: "bogus"}.Factory(spec)
}

func TestCacheForFractionFloors(t *testing.T) {
	spec, _ := workload.Build("KM", workload.Params{})
	cfg := cluster.Main()
	var maxBlock int64
	for _, r := range spec.Graph.CachedRDDs() {
		if r.PartSize > maxBlock {
			maxBlock = r.PartSize
		}
	}
	if got := cacheForFraction(spec, 1, 0.0001, cfg); got < 2*maxBlock {
		t.Errorf("floor violated: %d < %d", got, 2*maxBlock)
	}
}

func TestSuiteIDsUniqueAndListed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Suite() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.fig == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, want := range []string{"table1", "table3", "fig2", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"ablation-purge", "ablation-threshold", "ablation-min",
		"ablation-dynamic", "ablation-tiebreak", "baseline-oblivious",
		"variance", "storage-level", "failure", "sensitivity", "extensions"} {
		if !seen[want] {
			t.Errorf("suite missing %s", want)
		}
	}
}

func TestRunSuiteSelection(t *testing.T) {
	var b strings.Builder
	if err := RunSuite(&b, map[string]bool{"fig2": true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "== fig2") {
		t.Error("selected experiment missing")
	}
	if strings.Contains(out, "== fig4") {
		t.Error("unselected experiment ran")
	}
}
