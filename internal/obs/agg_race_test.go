package obs

import (
	"bytes"
	"sync"
	"testing"

	"mrdspark/internal/block"
)

// TestAggregatorConcurrentSnapshot hammers one aggregator from several
// emitting buses while snapshot readers render Prometheus expositions —
// the advisory server's exact access pattern. Run under -race it proves
// the mutex covers every fold and read path.
func TestAggregatorConcurrentSnapshot(t *testing.T) {
	agg := NewAggregator()
	done := make(chan struct{})
	var emitters sync.WaitGroup
	for e := 0; e < 4; e++ {
		emitters.Add(1)
		go func(e int) {
			defer emitters.Done()
			b := New()
			if e%2 == 0 {
				agg.Attach(b)
			} else { // a served session: a chunk at a time
				defer agg.AttachFolded(b, func() int64 { return 0 }).Close()
			}
			id := block.ID{RDD: e, Partition: e}
			for i := 0; i < 2000; i++ {
				b.SetStage(i%7, i%3)
				if i%100 == 0 {
					b.Emit(Ev(KindStageStart, ClusterScope).WithValue(4))
				}
				b.Emit(BlockEv(KindInsert, e, id, 64))
				b.Emit(BlockEv(KindHit, e, id, 64))
				b.Emit(BlockEv(KindMiss, e, id, 64))
				b.Emit(BlockEv(KindPrefetchIssue, e, id, 64))
				b.Emit(BlockEv(KindEvict, e, id, 64))
				b.Emit(Ev(KindEvictVerdict, ClusterScope).WithValue(int64(i % 8)).WithVerdict("mrd"))
				b.Emit(Ev(KindStageEnd, ClusterScope))
				agg.SetNodeBusy(e, int64(i), int64(i))
			}
		}(e)
	}
	go func() { emitters.Wait(); close(done) }()

	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				snap := agg.Snapshot()
				_ = snap.StageStats()
				_ = snap.NodeStats()
				_ = snap.Lanes()
				_ = snap.SynthesizeRun("w", "p")
				var buf bytes.Buffer
				if err := WritePrometheus(&buf, snap); err != nil {
					t.Errorf("WritePrometheus: %v", err)
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	readers.Wait()
	emitters.Wait()
}

// TestSnapshotIsDetached verifies a snapshot stops changing once taken:
// the deep copy shares no mutable state with the live aggregator.
func TestSnapshotIsDetached(t *testing.T) {
	agg := NewAggregator()
	b := New()
	agg.Attach(b)
	id := block.ID{RDD: 1, Partition: 0}
	b.SetStage(0, 0)
	b.Emit(BlockEv(KindHit, 0, id, 8))
	b.Emit(Ev(KindEvictVerdict, ClusterScope).WithValue(2).WithVerdict("mrd"))

	snap := agg.Snapshot()
	var before bytes.Buffer
	if err := WritePrometheus(&before, snap); err != nil {
		t.Fatal(err)
	}

	b.Emit(BlockEv(KindMiss, 0, id, 8))
	b.Emit(BlockEv(KindHit, 3, id, 8))
	b.Emit(Ev(KindEvictVerdict, ClusterScope).WithValue(5).WithVerdict("mrd"))

	var after bytes.Buffer
	if err := WritePrometheus(&after, snap); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Error("snapshot changed after further emits; copy is not detached")
	}
	if live := agg.Snapshot().NodeStats(); len(live) != 2 {
		t.Errorf("live aggregator nodes = %d, want 2", len(live))
	}
}
