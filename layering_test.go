package mrdspark

import (
	"os/exec"
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
// way, so it does not link the evaluation harness it is a check on.
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
	for pkg, bans := range banned {
		out, err := exec.Command("go", "list", "-deps", pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", pkg, err)
		}
		deps := map[string]bool{}
		for _, d := range strings.Fields(string(out)) {
			deps[d] = true
		}
		for _, b := range bans {
			if deps[b] {
				t.Errorf("%s links %s", pkg, b)
			}
		}
	}
}
