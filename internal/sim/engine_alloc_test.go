package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEngineSteadyStateAllocs pins the engine's hot path at zero
// allocations: once the heap and the now-FIFO have grown to the run's
// high-water mark, scheduling and firing events must reuse those
// arrays. The original container/heap engine boxed every event twice
// (Push and Pop each box the struct into `any`), which dominated the
// allocation profile of full simulations.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	var tick func()
	n := 0
	tick = func() {
		if n++; n < 100 {
			// Two events live at once so the heap genuinely reorders,
			// and one due now so the FIFO turns over too.
			e.After(3, tick)
			e.After(1, func() {})
			e.After(0, func() {})
		}
	}
	e.After(1, tick)
	e.Run() // warm the heap's and the FIFO's arrays

	allocs := testing.AllocsPerRun(100, func() {
		n = 0
		e.After(1, tick)
		e.Run()
	})
	if allocs > 0 {
		t.Errorf("warmed engine allocates %.1f times per run, want 0", allocs)
	}
}

// TestEnginePopClearsSlot is the regression test for the original
// eventHeap.Pop bug: the popped element was not zeroed, so the backing
// array kept the fired closure — and everything it captured — live
// until the slot happened to be overwritten. The engine must clear the
// slot an event leaves, in the heap (the vacated tail) and in the
// now-FIFO (the popped head, and the old slots of entries it moves down
// when it compacts — 100 events due at one instant make it compact).
func TestEnginePopClearsSlot(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		payload := make([]byte, 1<<10)
		e.After(int64(i%7), func() { _ = payload })
	}
	e.At(3, func() {
		for i := 0; i < 100; i++ {
			payload := make([]byte, 1<<10)
			e.After(0, func() { _ = payload })
		}
	})
	e.Run()
	if live := e.slabLive(); live != 0 {
		t.Errorf("%d slots still hold closures after Run; popped events must be cleared", live)
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
