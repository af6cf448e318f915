package service_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"mrdspark/internal/cluster"
	"mrdspark/internal/obs/trace"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/service"
	"mrdspark/internal/service/client"
	"mrdspark/internal/workload"
)

// traceflow_test drives the full client → server path with a tracer on
// both sides and checks the spans stitch into one trace with the right
// parent/child nesting — the end-to-end contract behind the waterfall
// report.

func traceAdvisorConfig() service.AdvisorConfig {
	return service.AdvisorConfig{Nodes: 4, CacheBytes: 64 * cluster.MB, Policy: policyspec.MRD}
}

// spanIndex merges span exports from several tracers into one lookup.
type spanIndex struct {
	byID map[trace.SpanID]trace.Span
	all  []trace.Span
}

func indexSpans(tracers ...*trace.Tracer) spanIndex {
	idx := spanIndex{byID: map[trace.SpanID]trace.Span{}}
	for _, tr := range tracers {
		for _, sp := range tr.Spans() {
			idx.byID[sp.ID] = sp
			idx.all = append(idx.all, sp)
		}
	}
	return idx
}

// find returns the first span with the given name whose attr contains
// substr.
func (idx spanIndex) find(name, substr string) (trace.Span, bool) {
	for _, sp := range idx.all {
		if sp.Name == name && strings.Contains(sp.Attr, substr) {
			return sp, true
		}
	}
	return trace.Span{}, false
}

func TestTracePropagationEndToEnd(t *testing.T) {
	shardTr := trace.NewTracer(2048)
	clientTr := trace.NewTracer(2048)

	srv := service.NewServer(service.ServerConfig{Trace: service.TraceConfig{Tracer: shardTr}})
	defer srv.Close()
	shardTS := httptest.NewServer(srv.Handler())
	defer shardTS.Close()

	c := client.New(client.Config{BaseURL: shardTS.URL, Tracer: clientTr})
	ctx := context.Background()

	const id = "traceflow-1"
	if _, err := c.CreateSession(ctx, service.CreateSessionRequest{
		ID: id, Workload: "SCC", Advisor: traceAdvisorConfig(),
	}); err != nil {
		t.Fatal(err)
	}
	spec, err := workload.Build("SCC", workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	advances := 0
	for i, st := range service.Schedule(spec.Graph) {
		if st.Stage < 0 {
			if _, err := c.SubmitJob(ctx, id, st.Job); err != nil {
				t.Fatalf("step %d job %d: %v", i, st.Job, err)
			}
			continue
		}
		if _, err := c.Advance(ctx, id, st.Stage); err != nil {
			t.Fatalf("step %d stage %d: %v", i, st.Stage, err)
		}
		advances++
	}

	// Every advance is one span tree in one trace: its client-call span
	// is the root and has a shard-handler child, and that an
	// advisor-compute child carrying the decision fingerprint. Each
	// interval contains the next, so the durations nest: client ≥
	// handler ≥ compute.
	idx := indexSpans(shardTr, clientTr)
	children := map[trace.SpanID][]trace.Span{}
	for _, sp := range idx.all {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	child := func(parent trace.Span, name string) trace.Span {
		t.Helper()
		for _, sp := range children[parent.ID] {
			if sp.Name == name {
				if sp.Trace != parent.Trace {
					t.Fatalf("%s %s crossed into trace %s; its parent %s is in %s", name, sp.ID, sp.Trace, parent.Name, parent.Trace)
				}
				return sp
			}
		}
		t.Fatalf("%s %s (%s) has no %s child", parent.Name, parent.ID, parent.Attr, name)
		return trace.Span{}
	}
	calls := 0
	for _, call := range idx.all {
		if call.Name != "client-call" || !strings.Contains(call.Attr, "/stage status=200") {
			continue
		}
		calls++
		if call.Parent != 0 {
			t.Errorf("%s: client-call should be the trace root, has parent %s", call.Attr, call.Parent)
		}
		handler := child(call, "shard-handler")
		compute := child(handler, "advisor-compute")
		if !strings.Contains(compute.Attr, "stage=") {
			t.Errorf("%s: advisor-compute carries no decision fingerprint: %q", call.Attr, compute.Attr)
		}
		if call.DurNs < handler.DurNs || handler.DurNs < compute.DurNs {
			t.Errorf("%s: durations do not nest: client %dns, handler %dns, compute %dns",
				call.Attr, call.DurNs, handler.DurNs, compute.DurNs)
		}
	}
	if calls != advances {
		t.Fatalf("%d advance client-call spans, want one per advance (%d)", calls, advances)
	}
}

// TestSnapshotRestoreSpans: a successor shard adopting a session from
// the shared snapshot store records a snapshot-restore span with a
// replay child, both hanging off the request's shard-handler root.
func TestSnapshotRestoreSpans(t *testing.T) {
	store := service.NewMemStore()
	ctx := context.Background()

	src := service.NewServer(service.ServerConfig{Snapshots: service.SnapshotPolicy{Store: store}})
	srcTS := httptest.NewServer(src.Handler())
	c := client.New(client.Config{BaseURL: srcTS.URL})
	const id = "restore-span-1"
	if _, err := c.CreateSession(ctx, service.CreateSessionRequest{
		ID: id, Workload: "SCC", Advisor: traceAdvisorConfig(),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitJob(ctx, id, 0); err != nil {
		t.Fatal(err)
	}
	srcTS.Close()
	src.Close()

	tr := trace.NewTracer(256)
	succ := service.NewServer(service.ServerConfig{
		Snapshots: service.SnapshotPolicy{Store: store},
		Trace:     service.TraceConfig{Tracer: tr},
	})
	defer succ.Close()
	succTS := httptest.NewServer(succ.Handler())
	defer succTS.Close()

	c2 := client.New(client.Config{BaseURL: succTS.URL})
	status, err := c2.GetSession(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !status.Restored {
		t.Fatal("successor did not restore the session from the snapshot store")
	}

	idx := indexSpans(tr)
	restore, ok := idx.find("snapshot-restore", "session="+id)
	if !ok {
		t.Fatal("no snapshot-restore span for the adopted session")
	}
	root, ok := idx.byID[restore.Parent]
	if !ok || root.Name != "shard-handler" {
		t.Errorf("snapshot-restore's parent is %q, want the shard-handler root", root.Name)
	}
	replay, ok := idx.find("replay", "ops=")
	if !ok {
		t.Fatal("no replay span inside the restore")
	}
	if replay.Parent != restore.ID {
		t.Errorf("replay's parent is %s, want the snapshot-restore span %s", replay.Parent, restore.ID)
	}
	if replay.Trace != restore.Trace {
		t.Error("replay landed in a different trace than its restore")
	}
}
