package sim

import (
	"bytes"
	"compress/gzip"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"mrdspark/internal/cluster"
	"mrdspark/internal/core"
	"mrdspark/internal/refdist"
	"mrdspark/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// sccTraceBytes runs the full SCC workload under full MRD with tracing
// enabled and returns the JSONL trace bytes.
func sccTraceBytes(t testing.TB) []byte {
	t.Helper()
	cfg := cluster.Main().WithCache(160 << 20)
	spec, err := workload.Build("SCC", workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(spec.Graph,
		core.NewRecurringProfiler(refdist.FromGraph(spec.Graph)), core.Options{})
	s, err := New(spec.Graph, cfg, mgr, "SCC")
	if err != nil {
		t.Fatal(err)
	}
	rec := traced(s)
	s.Run()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSCCTraceMatchesGolden is the cross-engine equivalence guard: the
// JSONL trace of a full SCC simulation must be byte-identical to the
// golden recorded with the original container/heap event engine. Any
// change to event ordering — engine internals, tie-breaking, policy
// decision order — shows up here as a byte diff. Regenerate with
// `go test ./internal/sim -run TestSCCTraceMatchesGolden -update-golden`
// only when an ordering change is intended and understood.
func TestSCCTraceMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	got := sccTraceBytes(t)
	path := filepath.Join("testdata", "scc_mrd_trace.jsonl.gz")

	if *updateGolden {
		var buf bytes.Buffer
		zw, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(got); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %d events, %d raw bytes, %d compressed",
			bytes.Count(got, []byte("\n")), len(got), buf.Len())
		return
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden missing (run with -update-golden): %v", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		n := len(gl)
		if len(wl) < n {
			n = len(wl)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("trace diverges from golden at line %d:\n got: %s\nwant: %s\n(%d vs %d lines)",
					i+1, gl[i], wl[i], len(gl), len(wl))
			}
		}
		t.Fatalf("trace length differs: got %d lines, want %d", len(gl), len(wl))
	}
}
