package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"mrdspark/internal/cli"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/service"
	"mrdspark/internal/service/client"
	"mrdspark/internal/workload"
)

// server is one in-process mrdserver: run on its own goroutine, its
// log read line by line as it is written.
type server struct {
	t      *testing.T
	lines  chan string
	done   chan error
	cancel context.CancelFunc
}

func start(t *testing.T, args ...string) *server {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	pr, pw := io.Pipe()
	// Sized for a whole run's log, so an unread line never blocks the server.
	s := &server{t: t, lines: make(chan string, 64), done: make(chan error, 1), cancel: cancel}
	go func() {
		defer close(s.lines)
		for sc := bufio.NewScanner(pr); sc.Scan(); {
			s.lines <- sc.Text()
		}
	}()
	go func() {
		err := run(ctx, args, io.Discard, pw)
		pw.Close()
		s.done <- err
	}()
	return s
}

// await returns the first log line from here on that matches re — how
// CI's smoke finds the address: it greps the log for "listening on".
func (s *server) await(re string) []string {
	s.t.Helper()
	timeout := time.After(20 * time.Second)
	for {
		select {
		case ln, ok := <-s.lines:
			if !ok {
				s.t.Fatalf("the log ended without a line matching %q (run returned %v)", re, <-s.done)
			}
			if m := regexp.MustCompile(re).FindStringSubmatch(ln); m != nil {
				return m
			}
		case <-timeout:
			s.t.Fatalf("no log line matching %q", re)
		}
	}
}

// stop cancels the run — main's SIGTERM — and waits for the drain.
func (s *server) stop() {
	s.t.Helper()
	s.cancel()
	s.await(`mrdserver: drained$`)
	if err := <-s.done; err != nil {
		s.t.Errorf("run returned %v after draining", err)
	}
}

// TestShardServesToParityAndDrains is CI's service smoke in one
// process: a shard with the frame listener, a snapshot directory and a
// span export serves a session whose every decision equals the
// library's; cancelled, it snapshots the live session, exports its
// spans and logs "drained".
func TestShardServesToParityAndDrains(t *testing.T) {
	dir := t.TempDir()
	snaps, spans := filepath.Join(dir, "snaps"), filepath.Join(dir, "spans.jsonl")
	s := start(t, "-addr", "127.0.0.1:0", "-frame-addr", "127.0.0.1:0", "-snapshot-dir", snaps, "-trace-out", spans)
	frameAddr := s.await(`mrdserver: frame protocol on (\S+)$`)[1]
	listening := s.await(`mrdserver: listening on (\S+) \(max-sessions=256, max-inflight=64, snapshots=true\)$`)
	base := "http://" + listening[1]

	spec, err := workload.Build("SCC", workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := service.AdvisorConfig{Nodes: 4, CacheBytes: 64 << 20, Policy: policyspec.MRD}
	oracle, err := service.NewAdvisor(spec.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := service.Replay(oracle)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for _, binary := range []bool{false, true} {
		c := client.New(client.Config{BaseURL: base, Binary: binary})
		defer c.Close()
		// The frame listener advertises itself from its own goroutine,
		// which the "listening on" line does not wait for.
		hz, err := c.Healthz(ctx)
		for deadline := time.Now().Add(10 * time.Second); err == nil && hz.FrameAddr == "" && time.Now().Before(deadline); {
			hz, err = c.Healthz(ctx)
		}
		if err != nil || hz.Status != "ok" || hz.FrameAddr != frameAddr {
			t.Fatalf("healthz = %+v, %v; want ok, advertising the frame listener %s", hz, err, frameAddr)
		}
		id := map[bool]string{false: "probe-json", true: "probe-bin"}[binary]
		if _, err := c.CreateSession(ctx, service.CreateSessionRequest{ID: id, Workload: "SCC", Advisor: cfg}); err != nil {
			t.Fatal(err)
		}
		resp, err := c.RunBatch(ctx, id, service.Schedule(spec.Graph))
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Advices) != len(want) {
			t.Fatalf("binary=%v: %d advices, want %d", binary, len(resp.Advices), len(want))
		}
		for i, adv := range resp.Advices {
			if g, w := adv.Fingerprint(), want[i].Fingerprint(); g != w {
				t.Fatalf("binary=%v: advice %d\n  server: %s\n  oracle: %s", binary, i, g, w)
			}
		}
	}

	// Both sessions are still live: the drain has something to persist.
	s.cancel()
	if n := s.await(`mrdserver: drain snapshots written: (\d+)$`)[1]; n != "2" {
		t.Errorf("drain snapshots written: %s, want 2", n)
	}
	if n := s.await(`mrdserver: exported (\d+) spans`)[1]; n == "0" {
		t.Error("the drain exported no spans")
	}
	s.stop()
	for _, path := range []string{filepath.Join(snaps, "probe-json.snap.json"), filepath.Join(snaps, "probe-bin.snap.json"), spans} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty after the drain (%v)", filepath.Base(path), err)
		}
	}
}

func TestExitStatuses(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		status int
		stderr string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag\nUsage of mrdserver:"},
		{[]string{"-router"}, 2, "flag provided but not defined: -router\nUsage of mrdserver:"},
		{[]string{"-addr", "not-an-address"}, 1, "mrdserver: listen tcp: "},
		{[]string{"-addr", "127.0.0.1:0", "-frame-addr", "not-an-address"}, 1, "mrdserver: frame listener: listen tcp: "},
		{[]string{"-addr", "127.0.0.1:0", "-debug-addr", "not-an-address"}, 1, "mrdserver: debug listener: listen tcp: "},
	} {
		var stdout, stderr bytes.Buffer
		status := cli.Run("mrdserver", func(args []string, stdout, stderr io.Writer) error {
			return run(context.Background(), args, stdout, stderr)
		}, tc.args, &stdout, &stderr)
		if status != tc.status || !strings.HasPrefix(stderr.String(), tc.stderr) || stdout.Len() != 0 {
			t.Errorf("%v: status %d, stdout %q, stderr %q; want status %d and stderr %q...", tc.args, status, stdout.String(), stderr.String(), tc.status, tc.stderr)
		}
	}
}
