package mrdspark

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mrdspark/internal/experiments"
	"mrdspark/internal/obs"
	"mrdspark/internal/obs/trace"
)

// TestRenderedHTMLPinned pins every HTML document the repository
// renders — the run report (with a comparison table, and under faults),
// the trace waterfall and the sweep report — by sha256, the way
// TestAdviceEdgesPinned pins the advice wire forms: the builders behind
// them may be rewritten freely, a changed byte fails here. After a
// deliberate change to a page, paste the hash the failure prints.
func TestRenderedHTMLPinned(t *testing.T) {
	report := func(cfg Config, baselines ...string) []byte {
		t.Helper()
		o, err := RunObserved(cfg, Exports{Report: "-"})
		if err != nil {
			t.Fatal(err)
		}
		var runs []Result
		for _, p := range baselines {
			cfg.Policy = p
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, r)
		}
		var buf bytes.Buffer
		if err := o.Export(&buf, runs...); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	km, err := BuildWorkload("KM", WorkloadParams{})
	if err != nil {
		t.Fatal(err)
	}
	// Instantiated for twice the stages KM runs, so the schedule's late
	// events never fire and the report carries its warning banner beside
	// the fault headline.
	chaos, err := FaultPreset("chaos", MainCluster().Nodes, 2*km.Graph.ActiveStages())
	if err != nil {
		t.Fatal(err)
	}

	// Two traces: a nested request whose middle span carries an
	// attribute and whose last span has zero length, and an orphan whose
	// parent is not in the export.
	tr := trace.TraceID{Hi: 1, Lo: 2}
	spans := []trace.Span{
		{Trace: tr, ID: 1, Name: "client-call", StartNs: 1_000, DurNs: 900_500},
		{Trace: tr, ID: 2, Parent: 1, Name: "shard-handler", StartNs: 101_000, DurNs: 700_000},
		{Trace: tr, ID: 3, Parent: 2, Name: "advisor-compute", StartNs: 201_000, DurNs: 400_250, Attr: "fp=9f3a stage=4 <&>"},
		{Trace: tr, ID: 4, Parent: 2, Name: "encode", StartNs: 650_000},
		{Trace: trace.TraceID{Hi: 3, Lo: 4}, ID: 5, Parent: 99, Name: "orphan", StartNs: 5_000, DurNs: 2_000_000_000},
	}
	var waterfall bytes.Buffer
	if err := obs.WriteTraceWaterfall(&waterfall, spans, "pinned"); err != nil {
		t.Fatal(err)
	}

	experiments.ResetRunCache()
	defer experiments.ResetRunCache()
	sweep, err := experiments.RunSweep(experiments.SmokeSweep(), 1)
	if err != nil {
		t.Fatal(err)
	}

	for _, pin := range []struct {
		name string
		html []byte
		want string
	}{
		{"report SP/64M MRD vs LRU,LRC", report(Config{Workload: "SP", CachePerNode: 64 << 20}, "LRU", "LRC"),
			"7d720acd5e614c1769d791f0fe113ae5f573f80e1620b3cc280c2751b89180f6"},
		{"report KM under chaos", report(Config{Workload: "KM", Fault: chaos}),
			"4280c1413cde25e723607656d22063d63e27761682907b39c0a5b9f74af3c81b"},
		{"trace waterfall", waterfall.Bytes(),
			"194ec44db2cd096d13521f29d275bfa3da4c2309ba8eb58d042acb17e252c76c"},
		{"smoke sweep", experiments.RenderSweepHTML(sweep),
			"b4be94554b999e33f92fc18a97391a9533addd5f5c0f2e389eebe9867100044b"},
	} {
		sum := sha256.Sum256(pin.html)
		if got := hex.EncodeToString(sum[:]); got != pin.want {
			t.Errorf("%s: %d bytes, sha256 %s, pinned %s", pin.name, len(pin.html), got, pin.want)
		}
	}
}
