package mrdspark

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// designTitles are DESIGN.md's sections. Go comments, the other
// documents and CI point into them as "DESIGN §N", so a section keeps
// its number and its title.
var designTitles = []string{
	"Reproduction strategy",
	"System inventory (what we build)",
	"Per-experiment index",
	"Key design decisions",
	"Fault model & recovery",
	"Observability",
	"Testing strategy",
	"Performance",
	"Online service",
	"Correctness harness",
	"Status / deviations",
	"Sharded deployment & crash recovery",
	"Request tracing & service telemetry",
	"Binary wire protocol & batch advisory",
	"Execution engine",
	"Experiment fabric",
}

// designBudget is the most DESIGN.md may weigh: it states each design
// and the contracts that hold it; history lives in CHANGES.md.
const designBudget = 45000

// citedDocs are the documents that describe the code as it is, and so
// may name only what exists. ROADMAP.md and CHANGES.md are history,
// docs/WORKLOADS.md is generated, benchmark/README.md is frozen with the
// benchmark module. EXPERIMENTS.md counts up to its raw suite output.
var citedDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"}

var (
	testName    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*`)
	runFlag     = regexp.MustCompile("(?:^|[\\s`])-(run|bench)(?:\\s+|=)('[^']*'|\"[^\"]*\"|[^\\s'\"`]+)")
	designRef   = regexp.MustCompile(`DESIGN(?:\.md)?[\s/]*§\s*(\d+)`)
	fence       = regexp.MustCompile("(?s)\n```[^\n]*\n(.*?)\n```")
	inlineCode  = regexp.MustCompile("`([^`]+)`")
	braces      = regexp.MustCompile(`([^\s{}]*)\{([^{}\s]*)\}([^\s{}]*)`)
	selector    = regexp.MustCompile(`\b[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+`)
	headingLine = regexp.MustCompile(`(?m)^## (\d+)\. (.*)$`)
	fileName    = regexp.MustCompile(`^[^/]*\.(json|jsonl|gz|html|txt|md|svg|sh|yml|mod)$`)
)

// TestDocsCiteLiveNames holds the documents to the code: every test,
// benchmark, fuzz target or example they name is a function in some
// _test.go of the repo (the benchmark module's included), every
// `go test -run`/`-bench` pattern selects one, every backticked repo
// path exists, every backticked pkg.Name or Type.Member is declared
// (pkg.metric_name: a metric BENCHMARK.json lists), and every
// "DESIGN §N" in Go, the documents or CI names a section DESIGN.md has.
// DESIGN.md itself keeps its sixteen sections and its byte budget.
func TestDocsCiteLiveNames(t *testing.T) {
	idx := indexRepo(t)

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(design) > designBudget {
		t.Errorf("DESIGN.md is %d bytes; the budget is %d", len(design), designBudget)
	}
	var titles []string
	for _, m := range headingLine.FindAllStringSubmatch(string(design), -1) {
		titles = append(titles, m[1]+". "+m[2])
	}
	var want []string
	for i, title := range designTitles {
		want = append(want, strconv.Itoa(i+1)+". "+title)
	}
	if !slices.Equal(titles, want) {
		t.Errorf("DESIGN.md sections are\n%q\nwant\n%q", titles, want)
	}

	for _, doc := range citedDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		if doc == "EXPERIMENTS.md" {
			text, _, _ = strings.Cut(text, "\n## Raw results\n")
		}
		// A -run or -bench pattern is judged as a pattern, then taken out
		// so that a fragment like TestSpec is not read as a name.
		text = runFlag.ReplaceAllStringFunc(text, func(flag string) string {
			m := runFlag.FindStringSubmatch(flag)
			idx.checkPattern(t, doc, m[1], strings.Trim(m[2], `'"`))
			return ""
		})
		for _, name := range testName.FindAllString(text, -1) {
			if !idx.tests[name] {
				t.Errorf("%s names %s, which no _test.go declares", doc, name)
			}
		}
		if strings.HasSuffix(doc, ".md") {
			for _, span := range codeSpans(text) {
				idx.checkSpan(t, doc, span)
			}
		}
	}

	sections := len(headingLine.FindAllString(string(design), -1))
	refs := append(slices.Clone(citedDocs), "ROADMAP.md")
	refs = append(refs, idx.goFiles...)
	for _, path := range refs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range designRef.FindAllStringSubmatch(string(b), -1) {
			if n, _ := strconv.Atoi(m[1]); n < 1 || n > sections {
				t.Errorf("%s cites %q; DESIGN.md has sections 1 to %d", path, m[0], sections)
			}
		}
	}
}

// repoIndex is what the documents may name.
type repoIndex struct {
	goFiles []string                   // slash-separated, relative to the root
	tests   map[string]bool            // Test/Benchmark/Fuzz/Example functions
	decls   map[string]map[string]bool // package name → top-level names, test files included
	types   map[string]bool            // type names, any package
	members map[string]map[string]bool // type name → fields and methods, any package
	metrics []string                   // BENCHMARK.json's metric names
}

func indexRepo(t *testing.T) *repoIndex {
	idx := &repoIndex{tests: map[string]bool{}, decls: map[string]map[string]bool{}, types: map[string]bool{},
		members: map[string]map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		path = filepath.ToSlash(path)
		idx.goFiles = append(idx.goFiles, path)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		test := strings.HasSuffix(path, "_test.go")
		// The benchmark module is another module: its tests count, its
		// declarations are not this module's API.
		module := !strings.HasPrefix(path, "benchmark/") && f.Name.Name != "main"
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if module && idx.decls[pkg] == nil {
			idx.decls[pkg] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					if test && testName.MatchString(decl.Name.Name) {
						idx.tests[decl.Name.Name] = true
					}
					if module {
						idx.decls[pkg][decl.Name.Name] = true
					}
				} else if module {
					idx.member(typeName(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				if !module {
					continue
				}
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						idx.decls[pkg][spec.Name.Name] = true
						idx.types[spec.Name.Name] = true
						idx.typeMembers(spec.Name.Name, spec.Type)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							idx.decls[pkg][n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		idx.metrics = append(idx.metrics, m.Name)
	}
	return idx
}

func (idx *repoIndex) member(typ, name string) {
	if idx.members[typ] == nil {
		idx.members[typ] = map[string]bool{}
	}
	idx.members[typ][name] = true
}

func (idx *repoIndex) typeMembers(typ string, expr ast.Expr) {
	var fields *ast.FieldList
	switch expr := expr.(type) {
	case *ast.StructType:
		fields = expr.Fields
	case *ast.InterfaceType:
		fields = expr.Methods
	default:
		return
	}
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			idx.member(typ, typeName(f.Type))
		}
		for _, n := range f.Names {
			idx.member(typ, n.Name)
		}
	}
}

// typeName is the name of a receiver or embedded type: T, *T, T[P], pkg.T.
func typeName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.SelectorExpr:
			return e.Sel.Name
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// checkPattern fails a -run pattern that selects no test, example or
// fuzz target, or a -bench pattern that selects no benchmark. Each
// top-level alternative must select something, so a dead name cannot
// hide beside a live one. "^$", selecting nothing on purpose, is allowed.
func (idx *repoIndex) checkPattern(t *testing.T, doc, flag, pattern string) {
	if pattern == "^$" {
		return
	}
	for _, alt := range topLevelAlternatives(pattern) {
		top, _, _ := strings.Cut(alt, "/")
		re, err := regexp.Compile(top)
		if err != nil {
			t.Errorf("%s: -%s %q does not compile: %v", doc, flag, pattern, err)
			continue
		}
		found := false
		for name := range idx.tests {
			if strings.HasPrefix(name, "Benchmark") == (flag == "bench") && re.MatchString(name) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: -%s %q: %q selects nothing", doc, flag, pattern, alt)
		}
	}
}

func topLevelAlternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range pattern {
		switch c {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pattern[start:])
}

// codeSpans returns a Markdown text's fenced blocks and inline code.
func codeSpans(text string) []string {
	var spans []string
	for _, m := range fence.FindAllStringSubmatch(text, -1) {
		spans = append(spans, m[1])
	}
	text = fence.ReplaceAllString(text, "\n")
	for _, m := range inlineCode.FindAllStringSubmatch(text, -1) {
		spans = append(spans, m[1])
	}
	return spans
}

// pathRoots start a path the documents give from the repo root.
var pathRoots = []string{"internal/", "cmd/", "docs/", "benchmark/"}

// checkSpan checks one code span's repo paths and selectors.
func (idx *repoIndex) checkSpan(t *testing.T, doc, span string) {
	for braces.MatchString(span) {
		span = braces.ReplaceAllStringFunc(span, func(s string) string {
			m := braces.FindStringSubmatch(s)
			var out []string
			for _, alt := range strings.Split(m[2], ",") {
				out = append(out, m[1]+alt+m[3])
			}
			return strings.Join(out, " ")
		})
	}
	for _, tok := range strings.FieldsFunc(span, func(r rune) bool {
		return strings.ContainsRune(" \t\n,;()'\"=|", r)
	}) {
		tok = strings.TrimRight(strings.TrimPrefix(tok, "./"), ".:")
		if strings.Contains(tok, "<") || fileName.MatchString(tok) {
			continue
		}
		if strings.Contains(tok, "/") || strings.HasSuffix(tok, ".go") {
			if !idx.pathExists(tok) {
				t.Errorf("%s cites `%s`, which is no file or directory of the repo", doc, tok)
			}
			continue
		}
		for _, sel := range selector.FindAllString(tok, -1) {
			if !idx.selectorLive(sel) {
				t.Errorf("%s cites `%s`, which the code does not declare", doc, sel)
			}
		}
	}
}

// pathExists judges a token that looks like a path: one under a
// root-level directory must exist from the root (a glob must match);
// a bare file name or a package-relative path must be some file's
// suffix. Other slashed tokens (stdlib import paths, URLs) pass.
func (idx *repoIndex) pathExists(tok string) bool {
	rooted := false
	for _, root := range pathRoots {
		rooted = rooted || strings.HasPrefix(tok, root)
	}
	tok = strings.TrimSuffix(strings.TrimSuffix(tok, "/..."), "/")
	if rooted {
		matches, _ := filepath.Glob(tok)
		return len(matches) > 0
	}
	if !strings.HasSuffix(tok, ".go") {
		return true
	}
	for _, f := range idx.goFiles {
		for {
			if ok, _ := filepath.Match(tok, f); ok {
				return true
			}
			i := strings.Index(f, "/")
			if i < 0 {
				break
			}
			f = f[i+1:]
		}
	}
	return false
}

// selectorLive judges X.Y(.Z): X a package of the module makes Y one
// of its declarations or a metric BENCHMARK.json lists under that
// prefix; X a declared type makes Y one of its fields or methods. A
// declared type Y goes on to judge Z the same way. Anything else (the
// standard library, a local variable) is not the repo's to judge.
func (idx *repoIndex) selectorLive(sel string) bool {
	parts := strings.Split(sel, ".")
	if decls, ok := idx.decls[parts[0]]; ok && !idx.types[parts[0]] {
		if !decls[parts[1]] {
			return slices.ContainsFunc(idx.metrics, func(m string) bool {
				return m == sel || strings.HasPrefix(m, sel+".")
			})
		}
		parts = parts[1:]
	}
	for i := 0; i+1 < len(parts); i++ {
		if !idx.types[parts[i]] {
			return true
		}
		if !idx.members[parts[i]][parts[i+1]] {
			return false
		}
	}
	return true
}
