package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/core"
	"mrdspark/internal/fault"
	"mrdspark/internal/obs"
	"mrdspark/internal/policy"
)

// traced attaches a recorder to the simulation's bus (before Run).
func traced(s *Simulation) *obs.Recorder {
	rec := obs.NewRecorder()
	rec.Attach(s.Bus())
	return rec
}

func TestTraceDisabledByDefault(t *testing.T) {
	g, _ := cachedReuseGraph(block.MemoryAndDisk)
	s, err := New(g, tinyCluster(1<<20), policy.NewLRU(), "t")
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if s.Bus().Enabled() {
		t.Error("event bus enabled without a subscriber")
	}
}

func TestTraceRecordsCacheLifecycle(t *testing.T) {
	g, _, _ := twoGapGraph()
	mgr := mrdFactory(g, core.Options{})
	s, err := New(g, tinyCluster(1<<10), mgr, "t")
	if err != nil {
		t.Fatal(err)
	}
	rec := traced(s)
	run := s.Run()

	kinds := map[string]int{}
	var prev int64
	for _, ev := range rec.Events() {
		kinds[ev.Kind.String()]++
		if ev.At < prev {
			t.Fatalf("trace out of order at %+v", ev)
		}
		prev = ev.At
	}
	if kinds["stage-start"] != run.StagesExecuted {
		t.Errorf("stage-start events = %d, want %d", kinds["stage-start"], run.StagesExecuted)
	}
	if int64(kinds["hit"]) != run.Hits {
		t.Errorf("hit events = %d, want %d", kinds["hit"], run.Hits)
	}
	if int64(kinds["promote"]) != run.DiskPromotes {
		t.Errorf("promote events = %d, want %d", kinds["promote"], run.DiskPromotes)
	}
	if int64(kinds["purge"]) != run.PurgedBlocks {
		t.Errorf("purge events = %d, want %d", kinds["purge"], run.PurgedBlocks)
	}
	if int64(kinds["prefetch-issue"]) != run.PrefetchIssued {
		t.Errorf("prefetch-issue events = %d, want %d", kinds["prefetch-issue"], run.PrefetchIssued)
	}
	if kinds["insert"] == 0 {
		t.Error("no insert events")
	}
}

func TestWriteTraceJSONLines(t *testing.T) {
	g, _ := cachedReuseGraph(block.MemoryAndDisk)
	s, err := New(g, tinyCluster(1<<10), policy.NewLRU(), "t")
	if err != nil {
		t.Fatal(err)
	}
	rec := traced(s)
	s.Run()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(rec.Events()) {
		t.Fatalf("wrote %d lines for %d events", len(lines), len(rec.Events()))
	}
	for _, ln := range lines {
		var ev obs.Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("bad JSON line %q: %v", ln, err)
		}
	}
}

func TestTraceFailureEvent(t *testing.T) {
	g, _ := junkFlowGraph()
	s, err := New(g, tinyCluster(1<<20), mrdFactory(g, core.Options{}), "t")
	if err != nil {
		t.Fatal(err)
	}
	rec := traced(s)
	if err := s.SetOptions(Options{Fault: fault.Crash(1, 2)}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindNodeFail && ev.Node == 1 {
			return
		}
	}
	t.Error("node failure not traced")
}

// TestTraceStageJobContext verifies the original trace bug stays
// fixed: every event between a stage-start and the next stage-start
// carries exactly that stage's ID and job — including fault and
// manager-decision events at the stage boundary.
func TestTraceStageJobContext(t *testing.T) {
	g, _, _ := twoGapGraph()
	s, err := New(g, tinyCluster(1<<10), mrdFactory(g, core.Options{}), "t")
	if err != nil {
		t.Fatal(err)
	}
	rec := traced(s)
	s.Run()

	stage, job := -1, -1
	blockEvents := 0
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindStageStart {
			stage, job = ev.Stage, ev.Job
		}
		if stage < 0 {
			t.Fatalf("%s event before any stage-start", ev.Kind)
		}
		if ev.Stage != stage || ev.Job != job {
			t.Fatalf("%s at t=%d carries stage %d/job %d, executing stage is %d/job %d",
				ev.Kind, ev.At, ev.Stage, ev.Job, stage, job)
		}
		if ev.HasBlock {
			blockEvents++
		}
	}
	if blockEvents == 0 {
		t.Fatal("trace has no block events to check")
	}
}

// TestTraceDeterministic: two simulations of the same graph on the
// same cluster must produce byte-identical serialized event streams —
// the property that makes recorded traces diffable across runs.
func TestTraceDeterministic(t *testing.T) {
	render := func() []byte {
		g, _, _ := twoGapGraph()
		s, err := New(g, tinyCluster(1<<10), mrdFactory(g, core.Options{}), "t")
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
	a, b := render(), render()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Error("same-seed runs produced different event streams")
	}
}

// TestReplayMatchesLiveAggregation: replaying a recorded JSONL trace
// through a fresh aggregator (what cmd/mrdreport does offline) must
// reproduce the live aggregator's per-stage and per-node sums.
func TestReplayMatchesLiveAggregation(t *testing.T) {
	g, _, _ := twoGapGraph()
	s, err := New(g, tinyCluster(1<<10), mrdFactory(g, core.Options{}), "t")
	if err != nil {
		t.Fatal(err)
	}
	rec := traced(s)
	live := s.Observe()
	s.Run()

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed := obs.Replay(events)

	ls, rs := live.StageStats(), replayed.StageStats()
	if len(ls) == 0 || len(ls) != len(rs) {
		t.Fatalf("stage counts differ: live %d, replayed %d", len(ls), len(rs))
	}
	for i := range ls {
		if ls[i] != rs[i] {
			t.Errorf("stage %d diverged:\n live   %+v\n replay %+v", i, ls[i], rs[i])
		}
	}
	ln, rn := live.NodeStats(), replayed.NodeStats()
	if len(ln) != len(rn) {
		t.Fatalf("node counts differ: live %d, replayed %d", len(ln), len(rn))
	}
	for i := range ln {
		l, r := ln[i], rn[i]
		// Device busy time is injected from the simulator after the
		// run; it never enters the event stream.
		l.DiskBusyUs, l.NetBusyUs = 0, 0
		if l != r {
			t.Errorf("node %d diverged:\n live   %+v\n replay %+v", i, l, r)
		}
	}
}
