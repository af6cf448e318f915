package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"mrdspark/internal/cluster"
	"mrdspark/internal/core"
	"mrdspark/internal/experiments"
	"mrdspark/internal/obs/trace"
	"mrdspark/internal/policy"
	"mrdspark/internal/sim"
	"mrdspark/internal/workload"
)

// TestManifestIsBenchmarkJSON keeps BENCHMARK.json and the manifest the
// program runs by the same, and inside the limits of the contract.
func TestManifestIsBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, theManifest.json()) {
		t.Error("BENCHMARK.json differs from the manifest; regenerate it with: bash benchmark/run.sh --manifest > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is malformed", u, n)
		}
	}
	for _, w := range theManifest.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range theManifest.EndToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("bound %g of %s is outside (0, 0.25]", d.Bound, d.Name)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range theManifest.PerLayer {
		check(d.Name, d.Unit)
	}
	if n := len(theManifest.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics; the contract allows 128", n)
	}
}

// printedMetrics parses a report back into name -> unit, failing on a
// name printed twice, and returns the result object of its last line.
func printedMetrics(t *testing.T, out string) (map[string]string, result) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	printed := map[string]string{}
	for _, line := range lines[1 : len(lines)-1] {
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("metric line %q is not name, value, unit", line)
		}
		if _, dup := printed[f[0]]; dup {
			t.Errorf("%s is printed twice", f[0])
		}
		printed[f[0]] = f[2]
	}
	return printed, res
}

func quickOptions(workload string, traced int) options {
	return options{
		workload: workload, seed: goldenSeed, seconds: 0.02, trace: traced, rounds: 1,
		setups: 1, effort: quickEffort,
	}
}

// TestEveryWorkloadPrintsTheManifest runs all six workloads, untraced
// and traced, for a fiftieth of a second each: every metric the manifest
// names is printed exactly once with its unit and nothing else is, no op
// fails against the seed-0 goldens, every span's children lie inside it,
// and no layer's self time is negative.
func TestEveryWorkloadPrintsTheManifest(t *testing.T) {
	golden, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, d := range theManifest.EndToEnd {
		endToEnd[d.Name] = d.Unit
	}
	for _, d := range theManifest.PerLayer {
		perLayer[d.Name] = d.Unit
	}
	for _, def := range theManifest.Workloads {
		for traced, want := range []map[string]string{endToEnd, perLayer} {
			def, traced, want := def, traced, want
			t.Run(fmt.Sprintf("%s/trace=%d", def.Name, traced), func(t *testing.T) {
				o := quickOptions(def.Name, traced)
				o.golden = golden
				res, err := runWorkload(o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", def.Name, traced, res.Correct, res.Attempted, res.Failed)
				}
				var out bytes.Buffer
				if err := report(&out, o, res); err != nil {
					t.Fatal(err)
				}
				printed, last := printedMetrics(t, out.String())
				if len(last.Metrics) != len(want) {
					t.Errorf("%s trace %d: result line has %d metrics, manifest %d", def.Name, traced, len(last.Metrics), len(want))
				}
				for n, u := range want {
					if printed[n] != u || last.Metrics[n].Unit != u {
						t.Errorf("%s trace %d: %s printed with unit %q, result line %q, manifest %q", def.Name, traced, n, printed[n], last.Metrics[n].Unit, u)
					}
				}
				for n := range printed {
					if _, ok := want[n]; !ok {
						t.Errorf("%s trace %d: printed %s, which the manifest does not name", def.Name, traced, n)
					}
				}
				for n, v := range res.Metrics {
					if traced == 0 && v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %g; they are never 0", def.Name, n, v.Value)
					}
					if n == "sim.self_ms" && v.Value < 0 {
						t.Errorf("%s: %s is negative (%g)", def.Name, n, v.Value)
					}
				}
			})
		}
	}
}

// TestCorruptGoldenFailsEveryOp: an output that matches its own warm-up
// but not the pinned digest is a wrong output.
func TestCorruptGoldenFailsEveryOp(t *testing.T) {
	golden, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	golden["sim/LRU/KM"] = "0000000000000000"
	o := quickOptions("sim-lru", 0)
	o.golden = golden
	res, err := runWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Errorf("corrupt golden: correct=%v attempted=%d failed=%d; want every op failed", res.Correct, res.Attempted, res.Failed)
	}
}

// every PolicySpec kind the repository can build.
var allPolicies = []experiments.PolicySpec{
	{Kind: "LRU"}, {Kind: "FIFO"}, {Kind: "LFU"}, {Kind: "Hyperbolic"}, {Kind: "GDS"},
	{Kind: "MemTune"}, {Kind: "MIN"}, {Kind: "LRC"}, {Kind: "LRC", AdHoc: true},
	{Kind: "MRD"}, {Kind: "MRD", AdHoc: true},
	{Kind: "MRD", MRD: core.Options{DisablePrefetch: true}},
}

// TestDecoratorKeepsAbilitiesAndDecisions: the timing decorator offers
// exactly the optional interfaces of the factory and node policy it
// wraps, so a decorated simulation returns the same metrics.Run.
func TestDecoratorKeepsAbilitiesAndDecisions(t *testing.T) {
	ws, err := workload.Build("KM", workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Main().WithCache(160 * cluster.MB)
	for _, p := range allPolicies {
		plain := p.Factory(ws)
		var clock policyClock
		wrapped, err := decorate(p.Factory(ws), &clock)
		if err != nil {
			t.Errorf("%s: %v", p.Name(), err)
			continue
		}
		if got, want := abilities(wrapped), abilities(plain); got != want {
			t.Errorf("%s: decorated factory has abilities %05b, plain %05b", p.Name(), got, want)
		}
		_, plainArb := plain.NewNodePolicy(0).(policy.PrefetchArbiter)
		_, wrappedArb := wrapped.NewNodePolicy(0).(policy.PrefetchArbiter)
		if plainArb != wrappedArb {
			t.Errorf("%s: PrefetchArbiter plain=%v decorated=%v", p.Name(), plainArb, wrappedArb)
		}
		want, err := sim.Run(ws.Graph, cfg, p.Factory(ws), ws.Name)
		if err != nil {
			t.Fatal(err)
		}
		clock = policyClock{}
		wrapped, _ = decorate(p.Factory(ws), &clock)
		got, err := sim.Run(ws.Graph, cfg, wrapped, ws.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: decorated run differs:\n got  %+v\n want %+v", p.Name(), got, want)
		}
		if clock.hooks == 0 {
			t.Errorf("%s: the decorator counted no store notification", p.Name())
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := trace.TraceID{Hi: 1, Lo: 1}
	spans := []trace.Span{
		{Trace: tr, ID: 1, Name: "root", StartNs: 100, DurNs: 100},
		{Trace: tr, ID: 2, Parent: 1, Name: "a", StartNs: 110, DurNs: 20},
		{Trace: tr, ID: 3, Parent: 1, Name: "b", StartNs: 120, DurNs: 30}, // overlaps a by 10
		{Trace: tr, ID: 4, Parent: 3, Name: "c", StartNs: 125, DurNs: 5},
		{Trace: tr, ID: 5, Parent: 9, Name: "orphan", StartNs: 0, DurNs: 7},
	}
	self, escaped := selfTimes(spans)
	if escaped != 0 {
		t.Errorf("escaped = %d, want 0", escaped)
	}
	for i, want := range []int64{60, 20, 25, 5, 7} {
		if self[i] != want {
			t.Errorf("self of %s = %d, want %d", spans[i].Name, self[i], want)
		}
	}
	spans[3].DurNs = 50 // c now ends after b
	if _, escaped := selfTimes(spans); escaped != 1 {
		t.Errorf("escaped = %d, want 1", escaped)
	}
}

func TestQuartilesArePythons(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g; Python gives 3.5, 31.0", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lowerBetter := endToEndDef{Name: "op_p50_ms", Better: lower, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100.5, 99.5}
	for _, c := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"same", []float64{100, 100.4, 99.8, 100.1, 99.9, 100.2}, "unchanged"},
		{"slower", []float64{120, 121, 119, 120, 120.5, 119.5}, "regressed"},
		{"faster", []float64{80, 81, 79, 80, 80.5, 79.5}, "improved"},
		{"noisy", []float64{80, 130, 95, 140, 70, 110}, "unresolved"},
	} {
		got, _, _ := verdict(lowerBetter, append([]float64(nil), steady...), c.change)
		if got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
