package mrdspark

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestServiceAndExecDoNotLinkTheHarness holds the layering the policy
// spec's move bought: the advisory server, the load generator and the
// execution engine name policies through internal/policyspec, so none
// of them links the simulator or the experiment suite (sweep fabric,
// run cache, HTML rendering) — not even transitively — and the server
// no longer links the fault schedules either. The correctness harness
// (internal/check) drives the simulator but names its policies the same
// way, so it does not link the evaluation harness it is a check on. And
// the statement of Algorithm 1 the harness holds the Advisor to
// (internal/check/spec) links, of this module, the graph and block types
// and nothing else — none of what it specifies.
func TestServiceAndExecDoNotLinkTheHarness(t *testing.T) {
	harness := []string{"mrdspark/internal/experiments", "mrdspark/internal/sim"}
	banned := map[string][]string{
		"./cmd/mrdserver":    append([]string{"mrdspark/internal/fault"}, harness...),
		"./cmd/mrdload":      harness,
		"./cmd/mrdexec":      harness,
		"./internal/service": harness,
		"./internal/exec":    harness,
		"./internal/check":   {"mrdspark/internal/experiments"},
	}
	specMayLink := []string{"mrdspark/internal/check/spec", "mrdspark/internal/block", "mrdspark/internal/dag"}
	deps := func(pkg string) []string {
		out, err := exec.Command("go", "list", "-deps", pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", pkg, err)
		}
		return strings.Fields(string(out))
	}
	for pkg, bans := range banned {
		for _, d := range deps(pkg) {
			if slices.Contains(bans, d) {
				t.Errorf("%s links %s", pkg, d)
			}
		}
	}
	for _, d := range deps("./internal/check/spec") {
		if strings.HasPrefix(d, "mrdspark") && !slices.Contains(specMayLink, d) {
			t.Errorf("./internal/check/spec links %s", d)
		}
	}
}
