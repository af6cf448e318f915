package service

import (
	"testing"
	"time"

	"mrdspark/internal/block"
	"mrdspark/internal/obs"
)

// TestDeleteWaitsOutInFlightCallThenDetaches pins the session teardown
// seam: Delete returns immediately (the registry lock is never held
// across a session lock), the dropped session only retires after its
// in-flight WithAdvisor call completes, and retirement runs the
// cleanup hook — detaching the session's bus so it stops feeding the
// shared aggregator.
func TestDeleteWaitsOutInFlightCallThenDetaches(t *testing.T) {
	r := NewRegistry(RegistryConfig{})
	bus := obs.New()
	agg := obs.NewAggregator()
	detach := agg.Attach(bus)
	sess := r.Create("w", nil, nil, detach)

	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		_ = sess.WithAdvisor(func(a *Advisor) error {
			close(entered)
			<-release
			// The bus is still attached while the call is in flight.
			bus.Emit(obs.BlockEv(obs.KindHit, 0, block.ID{RDD: 1}, 64))
			return nil
		})
		close(done)
	}()
	<-entered

	start := time.Now()
	if !r.Delete(sess.ID) {
		t.Fatal("Delete did not find the session")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("Delete blocked %v on the in-flight call", elapsed)
	}
	select {
	case <-sess.Retired():
		t.Fatal("session retired while a WithAdvisor call was in flight")
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	<-done
	select {
	case <-sess.Retired():
	case <-time.After(2 * time.Second):
		t.Fatal("session never retired after the in-flight call returned")
	}

	// The in-flight call's emit landed; anything after retirement must
	// not (the cleanup hook detached the bus from the aggregator).
	before := agg.SynthesizeRun("w", "p").Hits
	if before != 1 {
		t.Fatalf("aggregator saw %d hits before detach check; want the in-flight call's 1", before)
	}
	bus.Emit(obs.BlockEv(obs.KindHit, 0, block.ID{RDD: 2}, 64))
	if after := agg.SynthesizeRun("w", "p").Hits; after != before {
		t.Fatalf("retired session still feeds the aggregator: hits %d -> %d", before, after)
	}
}

// TestLRUBoundRetiresEvictee pins that sessions dropped by the LRU
// bound (not just explicit deletes) also run their cleanup and signal
// Retired.
func TestLRUBoundRetiresEvictee(t *testing.T) {
	r := NewRegistry(RegistryConfig{MaxSessions: 1})
	cleaned := make(chan struct{})
	first := r.Create("a", nil, nil, func() { close(cleaned) })
	_ = r.Create("b", nil, nil, nil)
	select {
	case <-first.Retired():
	case <-time.After(2 * time.Second):
		t.Fatal("LRU-evicted session never retired")
	}
	select {
	case <-cleaned:
	default:
		t.Fatal("Retired closed before cleanup ran")
	}
	if lru, _ := r.Evicted(); lru != 1 {
		t.Fatalf("evictedLRU = %d; want 1", lru)
	}
}
