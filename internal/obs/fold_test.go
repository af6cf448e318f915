package obs

import (
	"testing"

	"mrdspark/internal/block"
)

// TestFoldHoldsAChunkAndLosesNothing pins the Fold's contract event by
// event: nothing reaches the aggregator until the chunk fills or its
// owner flushes; a fold reads the clock once and stamps every event of
// the chunk with that instant; Close folds a part-filled chunk in
// before it detaches; and nothing emitted after Close arrives.
func TestFoldHoldsAChunkAndLosesNothing(t *testing.T) {
	agg := NewAggregator()
	bus := New()
	now, reads := int64(0), 0
	fold := agg.AttachFolded(bus, func() int64 { reads++; return now })
	hits := func() int64 { return agg.SynthesizeRun("w", "p").Hits }
	emit := func(n int) {
		for i := 0; i < n; i++ {
			bus.Emit(BlockEv(KindHit, 0, block.ID{RDD: 1, Partition: i}, 64))
		}
	}

	emit(FoldEvents - 1)
	if got := hits(); got != 0 || reads != 0 {
		t.Fatalf("%d hits reached the aggregator and the clock was read %d times before the chunk filled", got, reads)
	}
	now = 7
	emit(1) // fills the chunk
	if got := hits(); got != FoldEvents || reads != 1 {
		t.Fatalf("a full chunk folded %d hits in with %d clock reads; want %d and 1", got, reads, FoldEvents)
	}
	if st := agg.StageStats(); len(st) != 1 || st[0].StartUs != 7 {
		t.Fatalf("the chunk's events are not stamped with the fold instant: %+v", st)
	}

	emit(3)
	fold.Flush()
	fold.Flush() // nothing held: no clock read, nothing folded
	if got := hits(); got != FoldEvents+3 || reads != 2 {
		t.Fatalf("after a flush of 3: %d hits, %d clock reads; want %d and 2", got, reads, FoldEvents+3)
	}

	emit(5)
	fold.Close()
	if got := hits(); got != FoldEvents+8 {
		t.Fatalf("Close lost the part-filled chunk: %d hits, want %d", got, FoldEvents+8)
	}
	emit(FoldEvents)
	fold.Flush()
	if got := hits(); got != FoldEvents+8 {
		t.Fatalf("a closed Fold still feeds the aggregator: %d hits, want %d", got, FoldEvents+8)
	}
}

// TestFoldsKeepTheirBlocksApart: two streams that name a block alike —
// two advisory sessions — keep their own issue times, so each first use
// closes its own stream's lead time; a bus subscribed with Attach is a
// third stream. The used and wasted counts come from the stamps alone:
// an unstamped hit or eviction settles nothing, whoever issued what.
func TestFoldsKeepTheirBlocksApart(t *testing.T) {
	agg := NewAggregator()
	var now int64
	clock := func() int64 { return now }
	busA, busB, busC := New(), New(), New()
	foldA, foldB := agg.AttachFolded(busA, clock), agg.AttachFolded(busB, clock)
	agg.Attach(busC)
	id := block.ID{RDD: 3, Partition: 1}
	at := func(t int64, f *Fold, bus *Bus, ev Event) {
		now = t
		bus.Emit(ev)
		f.Flush()
	}

	at(10, foldA, busA, BlockEv(KindPrefetchIssue, 0, id, 64))
	at(100, foldB, busB, BlockEv(KindPrefetchIssue, 0, id, 64))
	busC.Emit(BlockEv(KindHit, 0, id, 64))   // C's block of that name was never prefetched
	busC.Emit(BlockEv(KindEvict, 0, id, 64)) // and its leaving wastes nothing
	if run := agg.SynthesizeRun("w", "p"); run.PrefetchUsed != 0 || run.PrefetchWasted != 0 {
		t.Fatalf("unstamped events settled a prefetch: %d used, %d wasted", run.PrefetchUsed, run.PrefetchWasted)
	}
	at(150, foldB, busB, BlockEv(KindHit, 0, id, 64).Settling(true))
	at(200, foldA, busA, BlockEv(KindHit, 0, id, 64).Settling(true))
	if run := agg.SynthesizeRun("w", "p"); run.PrefetchUsed != 2 || run.PrefetchWasted != 0 {
		t.Fatalf("two stamped first uses: %d used, %d wasted; want 2 and 0", run.PrefetchUsed, run.PrefetchWasted)
	}
	if h := agg.PrefetchLead; h.Count != 2 || h.Min != 50 || h.Max != 190 {
		t.Fatalf("lead times: n=%d min=%d max=%d; want B's 50 and A's 190", h.Count, h.Min, h.Max)
	}
}
