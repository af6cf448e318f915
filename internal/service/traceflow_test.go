package service_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
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

	var mu sync.Mutex
	var hops []client.Hops
	c := client.New(client.Config{
		BaseURL: shardTS.URL,
		Tracer:  clientTr,
		OnHops: func(h client.Hops) {
			mu.Lock()
			hops = append(hops, h)
			mu.Unlock()
		},
	})
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
	}

	// Every advice response reported a trace ID and a full per-hop
	// breakdown, with each inner hop no larger than the one around it:
	// client total ≥ shard ≥ compute.
	mu.Lock()
	defer mu.Unlock()
	if len(hops) == 0 {
		t.Fatal("OnHops never fired")
	}
	for _, h := range hops {
		if h.TraceID == "" {
			t.Fatalf("call %s came back without a trace ID", h.Path)
		}
		if h.ShardUs < 0 {
			t.Fatalf("call %s missing the shard hop header", h.Path)
		}
		if h.Total.Microseconds() < h.ShardUs {
			t.Errorf("call %s: client total %v < shard time %dus", h.Path, h.Total, h.ShardUs)
		}
		if strings.HasSuffix(h.Path, "/stage") {
			if h.ComputeUs < 0 {
				t.Errorf("advance %s missing the compute hop header", h.Path)
			}
			if h.ShardUs < h.ComputeUs {
				t.Errorf("advance %s: shard time %dus < compute time %dus", h.Path, h.ShardUs, h.ComputeUs)
			}
		}
	}

	// The span chain for an advance nests advisor-compute under
	// shard-handler under the client's call — all in one trace.
	idx := indexSpans(shardTr, clientTr)
	compute, ok := idx.find("advisor-compute", "stage=")
	if !ok {
		t.Fatal("no advisor-compute span carrying a decision fingerprint")
	}
	wantChain := []string{"shard-handler", "client-call"}
	sp := compute
	for _, wantName := range wantChain {
		parent, ok := idx.byID[sp.Parent]
		if !ok {
			t.Fatalf("span %s (%s) has no recorded parent; wanted %s", sp.Name, sp.ID, wantName)
		}
		if parent.Name != wantName {
			t.Fatalf("parent of %s is %s, want %s", sp.Name, parent.Name, wantName)
		}
		if parent.Trace != compute.Trace {
			t.Fatalf("span %s crossed into trace %s; the chain must share %s", parent.Name, parent.Trace, compute.Trace)
		}
		sp = parent
	}
	if sp.Parent != 0 {
		t.Errorf("client-call should be the trace root, has parent %s", sp.Parent)
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
