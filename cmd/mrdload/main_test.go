package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"mrdspark/internal/cli"
	"mrdspark/internal/obs/trace"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/service"
	"mrdspark/internal/service/client"
	"mrdspark/internal/workload"
)

// drive runs the command in-process, as main does, and returns what it
// wrote and its exit status.
func drive(args ...string) (stdout, stderr string, status int) {
	var o, e bytes.Buffer
	status = cli.Run("mrdload", run, args, &o, &e)
	return o.String(), e.String(), status
}

// serve starts an in-process advisory server on both transports and
// returns its base URL.
func serve(t *testing.T) string {
	t.Helper()
	srv := service.NewServer(service.ServerConfig{Trace: service.TraceConfig{Tracer: trace.NewTracer(trace.DefaultCapacity)}})
	hs := httptest.NewServer(srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Advertised before the first client can ask: ServeFrames only gets
	// to it once its goroutine runs.
	srv.SetFrameAddr(ln.Addr().String())
	go srv.ServeFrames(ln)
	t.Cleanup(func() {
		ln.Close()
		hs.Close()
		srv.Close()
	})
	return hs.URL
}

// TestParityHoldsOnEveryTransport is CI's load smoke: the same two SCC
// sessions over JSON, over frames, and over frames a job per batch —
// every server decision equal to the in-process oracle's, and the same
// number of them checked each way.
func TestParityHoldsOnEveryTransport(t *testing.T) {
	addr := serve(t)
	parity := regexp.MustCompile(`(?m)^parity: +(\d+) advice checked, 0 mismatches$`)
	checked := map[string]bool{}
	for _, transport := range [][]string{nil, {"-bin"}, {"-bin", "-batch"}} {
		args := append([]string{"-addr", addr, "-sessions", "2", "-workload", "scc", "-parity"}, transport...)
		stdout, stderr, status := drive(args...)
		if status != 0 {
			t.Fatalf("%v: exit status %d\n%s%s", transport, status, stdout, stderr)
		}
		name := "(json)"
		if transport != nil {
			name = "(bin)"
		}
		if !strings.HasPrefix(stdout, "mrdload: 2 sessions x scc (1 workloads) against "+addr+" "+name+", policy MRD, parity true\n") ||
			!strings.Contains(stdout, "\nsessions:      2 ok, 0 failed (") {
			t.Errorf("%v: summary:\n%s", transport, stdout)
		}
		m := parity.FindStringSubmatch(stdout)
		if m == nil {
			t.Fatalf("%v: no clean parity line in:\n%s", transport, stdout)
		}
		checked[m[1]] = true
		if !strings.Contains(stdout, "\nadvice calls:  "+m[1]+" (") {
			t.Errorf("%v: %s advice checked, but the advice-call count differs:\n%s", transport, m[1], stdout)
		}
	}
	if len(checked) != 1 || checked["0"] {
		t.Errorf("advice checked per transport = %v, want one nonzero count on all three", checked)
	}
}

// TestClientSpansAreExported: the client's own spans land where
// -trace-out says.
func TestClientSpansAreExported(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "client-spans.jsonl")
	stdout, stderr, status := drive("-addr", serve(t), "-sessions", "1", "-workload", "SP", "-trace-out", spans)
	if status != 0 {
		t.Fatalf("exit status %d\n%s%s", status, stdout, stderr)
	}
	if !regexp.MustCompile(`(?m)^traces: +exported [1-9]\d* spans `).MatchString(stdout) || strings.Contains(stdout, "parity:") {
		t.Errorf("summary:\n%s", stdout)
	}
	if data, _ := os.ReadFile(spans); !bytes.Contains(data, []byte(`"name":"client-call"`)) {
		t.Errorf("span export = %.120q", data)
	}
}

// bentServer fronts a real advisory server and bends the advice of
// every batch on its way back: the one compare site has to notice each
// way a server could diverge.
func bentServer(t *testing.T, bend func([]service.Advice) []service.Advice) *client.Client {
	t.Helper()
	srv := service.NewServer(service.ServerConfig{})
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/batch") {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var resp service.BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp.Advices = bend(resp.Advices)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return client.New(client.Config{BaseURL: ts.URL})
}

func TestParityNoticesEveryDivergence(t *testing.T) {
	cfg := service.AdvisorConfig{Nodes: 4, CacheBytes: 128 << 20, Policy: policyspec.MRD}
	for _, tc := range []struct {
		name       string
		bend       func([]service.Advice) []service.Advice
		mismatches int
		report     string
	}{
		{name: "faithful", bend: func(a []service.Advice) []service.Advice { return a }},
		{name: "one counter off", mismatches: 1, report: "hits=",
			bend: func(a []service.Advice) []service.Advice {
				if a[0].Stage == 0 {
					a[0].Counters.Hits++
				}
				return a
			}},
		{name: "last advice withheld", mismatches: 1, report: "server: (missing advice)",
			bend: func(a []service.Advice) []service.Advice {
				if a[len(a)-1].Stage == 6 {
					return a[:len(a)-1]
				}
				return a
			}},
		{name: "last advice sent twice", mismatches: 1, report: "8 advices for 7 stage steps",
			bend: func(a []service.Advice) []service.Advice {
				if a[len(a)-1].Stage == 6 {
					return append(a, a[len(a)-1])
				}
				return a
			}},
	} {
		res := sessionResult{workload: "SP"}
		if err := runSession(&res, bentServer(t, tc.bend), "bent", workload.Params{Seed: 3}, cfg, true, true, &killer{}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.mismatches) != tc.mismatches || tc.mismatches > 0 && !strings.Contains(res.mismatches[0], tc.report) {
			t.Errorf("%s: mismatches = %q, want %d mentioning %q", tc.name, res.mismatches, tc.mismatches, tc.report)
		}
		if res.advances == 0 || res.checked == 0 {
			t.Errorf("%s: %d advances, %d checked", tc.name, res.advances, res.checked)
		}
	}
}

// TestKillerFiresOnTheDueAdvance: the chaos trigger SIGKILLs its
// victim on exactly the -kill-after'th advance, however many sessions
// are ticking, and says so once.
func TestKillerFiresOnTheDueAdvance(t *testing.T) {
	victim := exec.Command("sleep", "60")
	if err := victim.Start(); err != nil {
		t.Skipf("no victim process to kill: %v", err)
	}
	var stdout, stderr bytes.Buffer
	k := &killer{after: 40, pid: victim.Process.Pid, stdout: &stdout, stderr: &stderr}
	for i := 0; i < 39; i++ {
		k.tick()
	}
	if stdout.Len() != 0 {
		t.Fatalf("fired early: %s", stdout.String())
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				k.tick()
			}
		}()
	}
	wg.Wait()
	if err := victim.Wait(); err == nil || !strings.Contains(err.Error(), "killed") {
		t.Errorf("the victim exited with %v, want killed", err)
	}
	if want := fmt.Sprintf("mrdload: killed pid %d after 40 advances\n", victim.Process.Pid); stdout.String() != want || stderr.Len() != 0 {
		t.Errorf("stdout %q, stderr %q; want %q once", stdout.String(), stderr.String(), want)
	}
}

func TestExitStatuses(t *testing.T) {
	if stdout, stderr, status := drive("-no-such-flag"); status != 2 || stdout != "" || !strings.HasPrefix(stderr, "flag provided but not defined: -no-such-flag\nUsage of mrdload:") {
		t.Errorf("unknown flag: status %d, stdout %q, stderr %q", status, stdout, stderr)
	}
	// A failed session is reported and fails the run; the summary still prints.
	stdout, stderr, status := drive("-addr", serve(t), "-sessions", "1", "-workload", "nope", "-parity")
	if status != 1 || !strings.Contains(stderr, `mrdload: session nope failed: workload: unknown workload "nope"`) ||
		!strings.HasSuffix(stderr, "mrdload: 1 sessions failed, 0 mismatches\n") || !strings.Contains(stdout, "\nsessions:      0 ok, 1 failed (") {
		t.Errorf("unknown workload: status %d\nstdout: %s\nstderr: %s", status, stdout, stderr)
	}
}
