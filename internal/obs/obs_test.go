package obs

import (
	"bytes"
	"strings"
	"testing"

	"mrdspark/internal/block"
)

// TestEventWireGolden pins the exact JSONL wire format. These strings
// are a compatibility contract: the legacy sim.TraceEvent consumer
// fields (at, node, kind, block, stage, job) must keep their names and
// the extension fields must stay omitempty. Changing any of them
// breaks recorded traces and external tooling.
func TestEventWireGolden(t *testing.T) {
	id := block.ID{RDD: 7, Partition: 3}
	cases := []struct {
		ev   Event
		want string
	}{
		{
			Event{At: 120, Node: 2, Kind: KindHit, Stage: 5, Job: 1, Block: id, HasBlock: true, Bytes: 4096},
			`{"at":120,"node":2,"kind":"hit","block":"rdd_7_3","stage":5,"job":1,"bytes":4096}`,
		},
		{
			// The valid zero block rdd_0_0 must serialize (HasBlock).
			Event{At: 1, Node: 0, Kind: KindInsert, Block: block.ID{}, HasBlock: true},
			`{"at":1,"node":0,"kind":"insert","block":"rdd_0_0","stage":0,"job":0}`,
		},
		{
			// A block-less event must omit "block" even though the zero
			// ID would render as rdd_0_0.
			Event{At: 9, Node: ClusterScope, Kind: KindPurgeOrder, Value: 12},
			`{"at":9,"node":-1,"kind":"purge-order","stage":0,"job":0,"value":12}`,
		},
		{
			Event{At: 33, Node: 1, Kind: KindEvictVerdict, Stage: 2, Job: 2, Block: id, HasBlock: true, Value: -1, Verdict: "mrd"},
			`{"at":33,"node":1,"kind":"evict-verdict","block":"rdd_7_3","stage":2,"job":2,"value":-1,"verdict":"mrd"}`,
		},
	}
	for _, c := range cases {
		got, err := c.ev.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal %+v: %v", c.ev, err)
		}
		if string(got) != c.want {
			t.Errorf("wire format drifted:\n got %s\nwant %s", got, c.want)
		}
		var back Event
		if err := back.UnmarshalJSON(got); err != nil {
			t.Fatalf("unmarshal %s: %v", got, err)
		}
		if back != c.ev {
			t.Errorf("round trip lost data:\n got %+v\nwant %+v", back, c.ev)
		}
	}
}

func TestReadJSONL(t *testing.T) {
	in := `{"at":1,"node":0,"kind":"hit","block":"rdd_2_1","stage":3,"job":1,"bytes":64}

{"at":2,"node":-1,"kind":"purge-order","stage":3,"job":1,"value":4}
`
	events, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("read %d events, want 2 (blank line must be skipped)", len(events))
	}
	if !events[0].HasBlock || events[0].Block != (block.ID{RDD: 2, Partition: 1}) {
		t.Errorf("block not recovered: %+v", events[0])
	}
	if events[1].Kind != KindPurgeOrder || events[1].Node != ClusterScope || events[1].Value != 4 {
		t.Errorf("cluster event not recovered: %+v", events[1])
	}

	if _, err := ReadJSONL(strings.NewReader("{\"at\":1}\nnot json\n")); err == nil {
		t.Error("malformed line did not error")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not name the offending line", err)
	}
}

func TestBusStampsClockAndStage(t *testing.T) {
	b := New()
	now := int64(100)
	b.SetClock(func() int64 { return now })
	var got []Event
	b.Subscribe(func(ev Event) { got = append(got, ev) })

	b.SetStage(4, 2)
	b.Emit(Ev(KindStageStart, ClusterScope))
	now = 250
	b.Emit(BlockEv(KindHit, 1, block.ID{RDD: 1}, 32))

	if len(got) != 2 {
		t.Fatalf("delivered %d events, want 2", len(got))
	}
	if got[0].At != 100 || got[1].At != 250 {
		t.Errorf("clock not stamped: at=%d,%d", got[0].At, got[1].At)
	}
	for _, ev := range got {
		if ev.Stage != 4 || ev.Job != 2 {
			t.Errorf("stage context not stamped on %s: stage=%d job=%d", ev.Kind, ev.Stage, ev.Job)
		}
	}
}

// TestEmitDisabledZeroAlloc is the hot-path guard: a nil or
// subscriber-less bus must make Emit free — no allocations, which also
// rules out the Event escaping to the heap.
func TestEmitDisabledZeroAlloc(t *testing.T) {
	ev := BlockEv(KindHit, 3, block.ID{RDD: 7, Partition: 9}, 4096).WithValue(12).WithVerdict("mrd")

	var nilBus *Bus
	if n := testing.AllocsPerRun(1000, func() { nilBus.Emit(ev) }); n != 0 {
		t.Errorf("nil bus Emit allocates %.1f per call", n)
	}
	disabled := New()
	if n := testing.AllocsPerRun(1000, func() { disabled.Emit(ev) }); n != 0 {
		t.Errorf("disabled bus Emit allocates %.1f per call", n)
	}
	if disabled.Enabled() || nilBus.Enabled() {
		t.Error("bus enabled without subscribers")
	}
}

// synthEvents is a tiny deterministic run: two stages on two nodes
// with a hit, a miss, an insert, an eviction verdict and a prefetch
// that arrives and is used. Shared by the exporter golden tests.
func synthEvents() []Event {
	a, b := block.ID{RDD: 1, Partition: 0}, block.ID{RDD: 1, Partition: 1}
	return []Event{
		{At: 0, Kind: KindStageStart, Node: ClusterScope, Stage: 0, Job: 0, Value: 2, Verdict: "shuffleMap"},
		{At: 0, Kind: KindTaskStart, Node: 0, Stage: 0, Job: 0, Value: 50},
		{At: 10, Kind: KindMiss, Node: 0, Stage: 0, Job: 0, Block: a, HasBlock: true, Bytes: 100},
		{At: 20, Kind: KindInsert, Node: 0, Stage: 0, Job: 0, Block: a, HasBlock: true, Bytes: 100},
		{At: 30, Kind: KindPrefetchIssue, Node: 1, Stage: 0, Job: 0, Block: b, HasBlock: true, Bytes: 100},
		{At: 40, Kind: KindPrefetchArrive, Node: 1, Stage: 0, Job: 0, Block: b, HasBlock: true, Bytes: 100},
		{At: 50, Kind: KindTaskEnd, Node: 0, Stage: 0, Job: 0},
		{At: 60, Kind: KindStageEnd, Node: ClusterScope, Stage: 0, Job: 0, Value: 60},
		{At: 60, Kind: KindStageStart, Node: ClusterScope, Stage: 1, Job: 0, Value: 1, Verdict: "result"},
		{At: 70, Kind: KindHit, Node: 0, Stage: 1, Job: 0, Block: a, HasBlock: true, Bytes: 100},
		{At: 75, Kind: KindHit, Node: 1, Stage: 1, Job: 0, Block: b, HasBlock: true, Bytes: 100, Verdict: VerdictUnread},
		{At: 80, Kind: KindEvictVerdict, Node: 0, Stage: 1, Job: 0, Block: a, HasBlock: true, Value: 3, Verdict: "mrd"},
		{At: 85, Kind: KindEvict, Node: 0, Stage: 1, Job: 0, Block: a, HasBlock: true, Bytes: 100},
		{At: 90, Kind: KindStageEnd, Node: ClusterScope, Stage: 1, Job: 0, Value: 30},
	}
}

func TestAggregatorOnSyntheticRun(t *testing.T) {
	a := Replay(synthEvents())

	stages := a.StageStats()
	if len(stages) != 2 {
		t.Fatalf("got %d stages, want 2", len(stages))
	}
	s0, s1 := stages[0], stages[1]
	if s0.Misses != 1 || s0.Inserts != 1 || s0.PrefetchIssued != 1 {
		t.Errorf("stage 0 stats wrong: %+v", s0)
	}
	if s0.Kind != "shuffleMap" || s0.Tasks != 2 {
		t.Errorf("stage 0 identity wrong: %+v", s0)
	}
	if s1.Hits != 2 || s1.Evictions != 1 {
		t.Errorf("stage 1 stats wrong: %+v", s1)
	}
	// The prefetched block b was first hit at t=75, issued at t=30.
	if s1.PrefetchUsed != 1 {
		t.Errorf("prefetch use not credited to the hitting stage: %+v", s1)
	}
	if a.PrefetchLead.Count != 1 || a.PrefetchLead.Min != 45 {
		t.Errorf("prefetch lead histogram wrong: n=%d min=%d", a.PrefetchLead.Count, a.PrefetchLead.Min)
	}
	if a.EvictDistance.Count != 1 || a.EvictDistance.Min != 3 {
		t.Errorf("evict distance histogram wrong: n=%d min=%d", a.EvictDistance.Count, a.EvictDistance.Min)
	}

	nodes := a.NodeStats()
	if len(nodes) != 2 {
		t.Fatalf("got %d nodes, want 2 (cluster scope must not become a node)", len(nodes))
	}
	if nodes[0].Tasks != 1 || nodes[0].Hits != 1 || nodes[1].Hits != 1 {
		t.Errorf("node stats wrong: %+v / %+v", nodes[0], nodes[1])
	}

	run := a.SynthesizeRun("synthetic", "TEST")
	if run.Hits != 2 || run.Misses != 1 || run.StagesExecuted != 2 || run.JCT != 90 {
		t.Errorf("synthesized run wrong: %+v", run)
	}
}

// TestPrometheusGolden pins the exposition format on the synthetic
// run: metric names, label sets and the cumulative-le histogram
// convention. Scraping configs depend on these names.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, Replay(synthEvents())); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE mrdspark_stage_events counter",
		`mrdspark_stage_events{exec="0",stage="0",job="0",kind="miss"} 1`,
		`mrdspark_stage_events{exec="1",stage="1",job="0",kind="hit"} 2`,
		`mrdspark_stage_duration_us{exec="0",stage="0",job="0"} 60`,
		`mrdspark_node_events{node="0",kind="task"} 1`,
		`mrdspark_node_events{node="1",kind="prefetch_issued"} 1`,
		"# TYPE mrdspark_evict_ref_distance histogram",
		`mrdspark_evict_ref_distance_bucket{le="3"} 1`,
		`mrdspark_evict_ref_distance_bucket{le="+Inf"} 1`,
		"mrdspark_evict_ref_distance_sum 3",
		"mrdspark_evict_ref_distance_count 1",
		`mrdspark_prefetch_lead_time_bucket{le="+Inf"} 1`,
		"mrdspark_prefetch_lead_time_sum 45",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing line %q", want)
		}
	}
	// Cumulative buckets must be monotonic within each histogram.
	for _, ln := range strings.Split(out, "\n") {
		if strings.HasPrefix(ln, "#") || ln == "" {
			continue
		}
		if !strings.Contains(ln, " ") {
			t.Errorf("malformed exposition line %q", ln)
		}
	}
}

// TestJSONLGoldenStream pins the full serialized form of the synthetic
// run and its replay round trip: write → read → write must be
// byte-identical, so recorded traces are stable replay inputs.
func TestJSONLGoldenStream(t *testing.T) {
	events := synthEvents()
	var first bytes.Buffer
	if err := WriteJSONL(&first, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := WriteJSONL(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("write→read→write is not byte-identical")
	}
	if got := strings.SplitN(first.String(), "\n", 2)[0]; got !=
		`{"at":0,"node":-1,"kind":"stage-start","stage":0,"job":0,"value":2,"verdict":"shuffleMap"}` {
		t.Errorf("first golden line drifted: %s", got)
	}
}

// TestAggregatorCountsSettlementStamps: used and wasted come from the
// stamps and from nothing else — every stamped kind counts once against
// its stage and its node, an aborted arrival and a node failure's count
// included, and the same events unstamped count nothing.
func TestAggregatorCountsSettlementStamps(t *testing.T) {
	id := block.ID{RDD: 2, Partition: 3}
	stamped := []Event{
		BlockEv(KindHit, 1, id, 8).Settling(true),
		BlockEv(KindEvict, 1, id, 8).Settling(true),
		BlockEv(KindPurge, 1, id, 0).Settling(true),
		BlockEv(KindBlockLost, 1, id, 0).Settling(true),
		BlockEv(KindPrefetchArrive, 1, id, 8).WithVerdict(VerdictRefused),
		Ev(KindNodeFail, 1).WithValue(3),
	}
	for _, strip := range []bool{false, true} {
		a := NewAggregator()
		for _, ev := range stamped {
			if strip {
				ev.Verdict, ev.Value = "", 0
			}
			ev.Stage = 4
			a.Observe(ev)
		}
		st, n := a.StageStats()[0], a.NodeStats()[0]
		used, wasted := int64(1), int64(7)
		if strip {
			used, wasted = 0, 0
		}
		if st.PrefetchUsed != used || st.PrefetchWasted != wasted || n.PrefetchUsed != used || n.PrefetchWasted != wasted {
			t.Errorf("stripped=%v: stage %d used / %d wasted, node %d / %d; want %d / %d on both",
				strip, st.PrefetchUsed, st.PrefetchWasted, n.PrefetchUsed, n.PrefetchWasted, used, wasted)
		}
	}
}
