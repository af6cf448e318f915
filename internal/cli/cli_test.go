package cli

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mrdspark/internal/obs/trace"
)

func TestParseBytes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		bad  bool
	}{
		{in: "160M", want: 160 << 20},
		{in: "1.5G", want: 3 << 29},
		{in: "64K", want: 64 << 10},
		{in: "4096", want: 4096},
		{in: "0", want: 0},
		{in: "", bad: true},
		{in: "M", bad: true},
		{in: "12Q", bad: true},
		{in: "one gig", bad: true},
	} {
		got, err := ParseBytes(tc.in)
		if tc.bad {
			if err == nil {
				t.Errorf("ParseBytes(%q) = %d, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}

func TestMB(t *testing.T) {
	if got := MB(160 << 20); got != "160.0MB" {
		t.Errorf("MB(160 MiB) = %q", got)
	}
	if got := MB(1 << 19); got != "0.5MB" {
		t.Errorf("MB(512 KiB) = %q", got)
	}
}

func TestSplitList(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"a", []string{"a"}},
		{"a,b,", []string{"a", "b"}},
		{" http://x:1 ,, http://y:2", []string{"http://x:1", "http://y:2"}},
	} {
		if got := SplitList(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitList(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestWriteTo(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	hello := func(w io.Writer) error { _, err := io.WriteString(w, "hello\n"); return err }
	if err := WriteTo(path, hello); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "hello\n" {
		t.Errorf("file holds %q", data)
	}

	// The renderer's error comes back, not a half-written success.
	boom := errors.New("render failed")
	if err := WriteTo(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("render error = %v, want %v", err, boom)
	}
	// So does an uncreatable path.
	if err := WriteTo(filepath.Join(dir, "missing", "out.txt"), hello); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("unwritable path error = %v, want not-exist", err)
	}
}

func TestExportTraces(t *testing.T) {
	tr := trace.NewTracer(16)
	tr.Start(trace.SpanContext{}, "root").EndWith("done")
	dir := t.TempDir()
	jsonl, chrome := filepath.Join(dir, "spans.jsonl"), filepath.Join(dir, "trace.json")

	if summary, err := ExportTraces(tr, "", ""); summary != "" || err != nil {
		t.Errorf("no paths: %q, %v; want nothing done", summary, err)
	}

	summary, err := ExportTraces(tr, jsonl, chrome)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(summary, "exported 1 spans (recorded 1,") {
		t.Errorf("summary = %q", summary)
	}
	if data, _ := os.ReadFile(jsonl); !strings.Contains(string(data), `"name":"root"`) {
		t.Errorf("JSONL export = %q", data)
	}
	if data, _ := os.ReadFile(chrome); !strings.Contains(string(data), `"traceEvents"`) {
		t.Errorf("Chrome export = %q", data)
	}

	// An unwritable path is reported to the caller — who decides whether
	// to exit — and does not stop the other format from being written.
	os.Remove(chrome)
	summary, err = ExportTraces(tr, filepath.Join(dir, "missing", "spans.jsonl"), chrome)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("unwritable JSONL path error = %v, want not-exist", err)
	}
	if summary == "" {
		t.Error("no summary after a partial export")
	}
	if _, statErr := os.Stat(chrome); statErr != nil {
		t.Errorf("Chrome export skipped after the JSONL failure: %v", statErr)
	}

	// A nil tracer still writes empty-but-valid files.
	if _, err := ExportTraces(nil, jsonl, chrome); err != nil {
		t.Errorf("nil tracer: %v", err)
	}
	if data, _ := os.ReadFile(chrome); !strings.Contains(string(data), `"traceEvents"`) {
		t.Errorf("nil-tracer Chrome export = %q", data)
	}
}
