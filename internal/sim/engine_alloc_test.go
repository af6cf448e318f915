package sim

import (
	"math/rand"
	"sort"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
	"mrdspark/internal/dag"
	"mrdspark/internal/fault"
	"mrdspark/internal/policy"
)

// ticker is a Handler that reschedules itself, as a task does.
type ticker struct {
	e       *Engine
	n       int
	payload []byte
}

func (k *ticker) fire() {
	if k.n++; k.n < 100 {
		k.e.schedule(k.e.now+2, k)
	}
}

// TestEngineSteadyStateAllocs pins the engine's hot path at zero
// allocations: once the heap and the now-FIFO have grown to the run's
// high-water mark, scheduling and firing events — a handler, as the
// run's tasks, prefetch legs and devices are, or a closure given to
// After — must reuse those arrays. The original container/heap engine
// boxed every event twice (Push and Pop each box the struct into
// `any`), which dominated the allocation profile of full simulations.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	k := &ticker{e: e}
	var tick func()
	n := 0
	tick = func() {
		if n++; n < 100 {
			// Three events live at once so the heap genuinely reorders,
			// and one due now so the FIFO turns over too.
			e.After(3, tick)
			e.After(1, func() {})
			e.After(0, func() {})
		}
	}
	cycle := func() {
		n, k.n = 0, 0
		e.After(1, tick)
		e.schedule(1, k)
		e.Run()
	}
	cycle() // warm the heap's and the FIFO's arrays
	if k.n != 100 || n != 100 {
		t.Fatalf("the handler fired %d times and the closure %d, want 100 each", k.n, n)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Errorf("warmed engine allocates %.1f times per run, want 0", allocs)
	}
}

// TestEnginePopClearsSlot is the regression test for the original
// eventHeap.Pop bug: the popped element was not zeroed, so the backing
// array kept the fired closure — and everything it captured — live
// until the slot happened to be overwritten. The engine must clear the
// slot an event leaves, whether a closure or a handler held it, in the
// heap (the vacated tail) and in the now-FIFO (the popped head; 100
// events due at one instant make its ring grow, moving the entries).
func TestEnginePopClearsSlot(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		payload := make([]byte, 1<<10)
		e.After(int64(i%7), func() { _ = payload })
		e.schedule(int64(i%5), &ticker{e: e, n: 100, payload: payload})
	}
	e.At(3, func() {
		for i := 0; i < 100; i++ {
			payload := make([]byte, 1<<10)
			e.After(0, func() { _ = payload })
			e.schedule(0, &ticker{e: e, n: 100, payload: payload})
		}
	})
	e.Run()
	if live := e.slabLive(); live != 0 {
		t.Errorf("%d slots still hold handlers after Run; popped events must be cleared", live)
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d after Run", e.Pending())
	}
}

// TestEngineMatchesReferenceModel drives the engine and a naive
// reference scheduler (sort all events by (at, seq)) with the same
// randomized workload — including events scheduled from inside
// handlers, for later, for now and for the past (which clamps to now) —
// and requires the identical firing sequence. This is the tie-break
// semantics guard: timestamp order, scheduling order within a
// timestamp, whichever of the heap and the now-FIFO an event went
// through.
func TestEngineMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		type ref struct {
			at  int64
			seq int
			id  int
		}
		var (
			e       = NewEngine()
			got     []int
			want    []int
			pending []ref
			seq     int
			nextID  int
		)
		// The reference model mirrors every At call; delays and fan-out
		// are derived from the shared rng *before* scheduling so both
		// sides see the same workload.
		var schedule func(at int64, fanout int)
		schedule = func(at int64, fanout int) {
			if nextID >= 500 { // bound the branching process
				return
			}
			id := nextID
			nextID++
			// The model clamps like the engine: the past is now.
			pending = append(pending, ref{at: max(at, e.Now()), seq: seq, id: id})
			seq++
			e.At(at, func() {
				got = append(got, id)
				for i := 0; i < fanout; i++ {
					// 0 delays exercise same-time nesting, negative ones
					// the clamp: both land behind the events already due.
					d := int64(rng.Intn(7)) - 2
					schedule(e.Now()+d, rng.Intn(3))
				}
			})
		}
		for i := 0; i < 20; i++ {
			schedule(int64(rng.Intn(10)), rng.Intn(3))
		}
		e.Run()

		// Reference firing order: all events sorted by (at, seq). A
		// handler can only schedule events with (clamped) at >= the
		// firing time and a larger seq, so the engine's firing sequence is strictly
		// increasing in (at, seq) and one final sort reproduces it.
		sort.Slice(pending, func(a, b int) bool {
			if pending[a].at != pending[b].at {
				return pending[a].at < pending[b].at
			}
			return pending[a].seq < pending[b].seq
		})
		for _, r := range pending {
			want = append(want, r.id)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, reference has %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: firing order diverges at %d: engine=%v reference=%v",
					trial, i, got[:i+1], want[:i+1])
			}
		}
	}
}

// TestPrefetchSteadyStateAllocs pins a prefetch's way through a warmed
// simulation at zero allocations: issued by the manager's ClusterOps,
// read from the local disk — or, when the local copy is gone, from a
// replica's disk and across the NIC — and landed in memory. Each issued
// prefetch used to allocate two closures; its record now comes from the
// run's slab, and a landed one goes back to it.
func TestPrefetchSteadyStateAllocs(t *testing.T) {
	g := dag.New()
	g.Count(g.Source("in", 4, 1<<20).Map("c").Persist(block.MemoryAndDisk))
	s, err := New(g, cluster.Main(), policy.NewLRU(), "prefetch")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetOptions(Options{Fault: &fault.Schedule{Replication: 2}}); err != nil {
		t.Fatal(err)
	}
	ops := clusterOps{s}
	local := block.Info{ID: block.ID{RDD: 1, Partition: 0}, Size: 1 << 20, Level: block.MemoryAndDisk}
	remote := block.Info{ID: block.ID{RDD: 1, Partition: 1}, Size: 1 << 20, Level: block.MemoryAndDisk}
	homeOf := func(info block.Info) *node { return s.nodes[ops.HomeNode(info.ID)] }
	homeOf(local).disk.Put(local.ID, local.Size)
	s.nodes[(homeOf(remote).id+1)%len(s.nodes)].disk.PutReplica(remote.ID, remote.Size)
	cycle := func() {
		for _, info := range []block.Info{local, remote} {
			ops.Prefetch(homeOf(info).id, info)
		}
		s.eng.Run()
		for _, info := range []block.Info{local, remote} {
			if !homeOf(info).mem.Contains(info.ID) {
				t.Fatalf("the prefetch of %v did not land", info.ID)
			}
			homeOf(info).mem.Remove(info.ID)
		}
		homeOf(remote).disk.Remove(remote.ID) // the restore copied it home
	}
	cycle() // warm the record pool, the device queues and the engine
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Errorf("a warmed simulation allocates %.1f times per prefetch pair, want 0", allocs)
	}
	if landed := homeOf(local).mem.Prefetch.Landed; landed != 102 {
		t.Errorf("%d local prefetches landed, want 102", landed)
	}
	if s.run.NetReadBytes != 102*remote.Size {
		t.Errorf("%d bytes crossed the NIC, want %d: the replica leg did not run", s.run.NetReadBytes, 102*remote.Size)
	}
}
