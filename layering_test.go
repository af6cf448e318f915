package mrdspark

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
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

// TestOneCountingSite holds the event stream to being the only count of
// every fact it carries (DESIGN §6). In the simulator, the advisory
// service and the execution engine no stream-derived metrics.Run field
// and no service.Counters field is assigned or incremented: the bus
// tallies each event, obs.Tally.FillRun fills a run's fields from that
// tally and service's countersOf an advance's counters. A package is
// held to the fields of the types it can name: metrics.Run's where one
// of its files imports internal/metrics, service.Counters' in package
// service and where one imports it. The one write allowed is
// Counters.Add, which sums counters already read off a tally.
func TestOneCountingSite(t *testing.T) {
	runFields := []string{"Hits", "Misses", "DiskPromotes", "Recomputes",
		"Evictions", "PurgedBlocks", "PrefetchIssued",
		"NodeCrashes", "NodeRejoins", "StragglerEvents", "BlocksLost", "BlocksCorrupted",
		"ReplicaHits", "ReplicaWriteBytes", "FetchRetries", "FetchGiveUps",
		"TasksExecuted", "StagesExecuted"}
	counterFields := []string{"Hits", "Misses", "Promotes", "Recomputes", "Inserts", "Evictions", "Purged", "Prefetches"}
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{} // by directory
	for _, root := range []string{"internal/sim", "internal/service", "internal/exec"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			pkgs[filepath.Dir(path)] = append(pkgs[filepath.Dir(path)], f)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, files := range pkgs {
		var fields []string
		for _, f := range files {
			if f.Name.Name == "service" {
				fields = append(fields, counterFields...)
			}
			for _, im := range f.Imports {
				switch p, _ := strconv.Unquote(im.Path.Value); p {
				case "mrdspark/internal/metrics":
					fields = append(fields, runFields...)
				case "mrdspark/internal/service":
					fields = append(fields, counterFields...)
				}
			}
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || fn.Name.Name == "Add" && fn.Recv != nil && recvName(fn) == "Counters" {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					var lhs []ast.Expr
					switch st := n.(type) {
					case *ast.IncDecStmt:
						lhs = []ast.Expr{st.X}
					case *ast.AssignStmt:
						lhs = st.Lhs
					}
					for _, x := range lhs {
						if sel, ok := x.(*ast.SelectorExpr); ok && slices.Contains(fields, sel.Sel.Name) {
							t.Errorf("%s: %s writes %s, a count the event stream keeps", fset.Position(sel.Pos()), fn.Name.Name, sel.Sel.Name)
						}
					}
					return true
				})
			}
		}
	}
}

// recvName returns the name of a method's receiver type.
func recvName(fn *ast.FuncDecl) string {
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, _ := typ.(*ast.Ident)
	return id.Name
}
