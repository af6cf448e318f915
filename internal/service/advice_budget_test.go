package service_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/obs"
	"mrdspark/internal/policy"
	"mrdspark/internal/service"
	"mrdspark/internal/service/wire"
	"mrdspark/internal/workload"
)

// buildD4 generates the benchmark's advise-fresh DAG set: its four
// heaviest workloads, 261 stage boundaries a pass.
func buildD4(tb testing.TB, seed int64) []*workload.Spec {
	tb.Helper()
	var specs []*workload.Spec
	for _, name := range []string{"SCC", "LP", "KM", "PO"} {
		spec, err := workload.Build(name, workload.Params{Seed: seed})
		if err != nil {
			tb.Fatal(err)
		}
		specs = append(specs, spec)
	}
	return specs
}

// countingOps counts the restorability questions the manager puts to
// the advisor's cluster model, and the prefetch orders they lead to.
type countingOps struct {
	policy.ClusterOps
	onDisk, orders int
}

func (o *countingOps) OnDisk(node int, id block.ID) bool {
	o.onDisk++
	return o.ClusterOps.OnDisk(node, id)
}

func (o *countingOps) Prefetch(node int, info block.Info) {
	o.orders++
	o.ClusterOps.Prefetch(node, info)
}

// TestBoundaryProbeBudget is the advisor's shape of the law
// internal/sim holds under the same name: the benchmark's advise-fresh
// session set (D4 at seed 0, 4 × 64 MB) issues 3 650 prefetch orders,
// and the manager puts one restorability question an order — it asks
// only about a partition memory can take of an RDD a stage before this
// one has created, and every such partition is on disk (20 802
// questions when it asked about RDDs no stage had created yet; 329 104
// when it asked about every partition not in memory before looking at
// what memory could take).
func TestBoundaryProbeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark's D4 session set")
	}
	var ops countingOps
	for _, spec := range buildD4(t, 0) {
		adv, err := service.NewAdvisor(spec.Graph, testAdvisorConfig())
		if err != nil {
			t.Fatal(err)
		}
		ops.ClusterOps = adv.Ops()
		adv.Factory().(policy.ClusterAware).Attach(&ops)
		if _, err := service.Replay(adv); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("D4 session set: %d OnDisk probes for %d prefetch orders", ops.onDisk, ops.orders)
	if ops.orders != 3650 {
		t.Errorf("the session set issued %d prefetch orders, want 3650: the law below is for that work", ops.orders)
	}
	if ops.onDisk != ops.orders {
		t.Errorf("the manager put %d restorability questions for %d orders, want one an order", ops.onDisk, ops.orders)
	}
}

// TestAdviceAllocationBudget holds the advisory call to what it may
// allocate, on any hardware: a whole SCC session at seed 0 under MRD on
// 4 × 64 MB with an aggregator attached — NewAdvisor, then every job
// and stage — in at most 1 045 objects and 1 395 KB, 1.15 × the 911
// objects and 1 214 KB measured (24 032 objects and 2 586 KB when every
// event took the aggregator's lock alone, every decision rendered its
// block's name and every eviction allocated a filter and a result
// slice), and an advice encoded into a warm encoder in none.
func TestAdviceAllocationBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("counts the allocations of a whole SCC session")
	}
	spec, err := workload.Build("SCC", workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	session := func() []service.Advice {
		adv, err := service.NewAdvisor(spec.Graph, testAdvisorConfig())
		if err != nil {
			t.Fatal(err)
		}
		bus := obs.New()
		obs.NewAggregator().Attach(bus)
		adv.AttachBus(bus)
		log, err := service.Replay(adv)
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	session() // warm: lazy set-up in the packages underneath is not the session's
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	log := session()
	runtime.ReadMemStats(&after)
	objs, kb := after.Mallocs-before.Mallocs, (after.TotalAlloc-before.TotalAlloc)>>10
	t.Logf("SCC session under MRD: %d objects, %d KB", objs, kb)
	if objs > 1045 || kb > 1395 {
		t.Errorf("one SCC session allocated %d objects and %d KB, budget 1045 objects and 1395 KB", objs, kb)
	}

	var e wire.Enc
	decisions := 0
	encode := func() {
		for i := range log {
			e.Begin(wire.Header{Version: wire.Version, Op: wire.OpAdvice, Seq: uint64(i)})
			service.AppendAdvicePayload(&e, &log[i])
			decisions += len(log[i].Decisions)
		}
	}
	encode() // warm: the encoder's buffer grows to the largest advice
	if decisions == 0 {
		t.Fatal("the session's log carries no decision")
	}
	if n := testing.AllocsPerRun(10, encode); n != 0 {
		t.Errorf("encoding the session's %d advices into a warm encoder allocates %v objects; want 0", len(log), n)
	}
}

// BenchmarkAdviseD4 is the five-second loop for work on the advice
// path: one op is the benchmark's advise-fresh pass without the harness
// — a fresh session per D4 DAG on an in-process server, driven stage by
// stage over the frame protocol by one client.
func BenchmarkAdviseD4(b *testing.B) {
	specs := buildD4(b, 1)
	_, url, frameAddr := newFrameServer(b)
	c := binClient(b, url, frameAddr)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			id := fmt.Sprintf("bench-%s-%d", spec.Name, i)
			driveSteps(b, c, id, createSession(b, c, id, spec))
			if err := c.DeleteSession(ctx, id); err != nil {
				b.Fatal(err)
			}
		}
	}
}
