package service

import (
	"fmt"
	"testing"
	"time"
)

// fakeClock lets registry tests advance time deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func testRegistry(cfg RegistryConfig) (*Registry, *fakeClock) {
	r := NewRegistry(cfg)
	c := newFakeClock()
	r.now = c.now
	return r, c
}

func TestRegistryLRUBound(t *testing.T) {
	r, _ := testRegistry(RegistryConfig{MaxSessions: 2, IdleTimeout: -1})
	s1 := r.Create("w", nil, nil, nil)
	s2 := r.Create("w", nil, nil, nil)
	if _, ok := r.Get(s1.ID); !ok { // touch s1: s2 becomes LRU
		t.Fatal("s1 missing")
	}
	s3 := r.Create("w", nil, nil, nil)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if _, ok := r.Get(s2.ID); ok {
		t.Error("s2 should have been LRU-evicted")
	}
	for _, id := range []string{s1.ID, s3.ID} {
		if _, ok := r.Get(id); !ok {
			t.Errorf("session %s should survive", id)
		}
	}
	if lru, _ := r.Evicted(); lru != 1 {
		t.Errorf("evictedLRU = %d, want 1", lru)
	}
}

func TestRegistryIdleSweep(t *testing.T) {
	r, clk := testRegistry(RegistryConfig{MaxSessions: 8, IdleTimeout: time.Minute})
	stale := r.Create("w", nil, nil, nil)
	clk.advance(45 * time.Second)
	fresh := r.Create("w", nil, nil, nil)
	clk.advance(30 * time.Second) // stale idle 75s, fresh idle 30s
	if n := r.SweepIdle(); n != 1 {
		t.Fatalf("SweepIdle = %d, want 1", n)
	}
	if _, ok := r.Get(stale.ID); ok {
		t.Error("stale session should be gone")
	}
	if _, ok := r.Get(fresh.ID); !ok {
		t.Error("fresh session should survive")
	}
	if _, idle := r.Evicted(); idle != 1 {
		t.Errorf("evictedIdle = %d, want 1", idle)
	}
}

func TestRegistrySweepDisabled(t *testing.T) {
	r, clk := testRegistry(RegistryConfig{MaxSessions: 8, IdleTimeout: -1})
	r.Create("w", nil, nil, nil)
	clk.advance(24 * time.Hour)
	if n := r.SweepIdle(); n != 0 {
		t.Errorf("disabled sweep removed %d sessions", n)
	}
}

func TestRegistryDelete(t *testing.T) {
	r, _ := testRegistry(RegistryConfig{})
	s := r.Create("w", nil, nil, nil)
	if !r.Delete(s.ID) {
		t.Fatal("Delete of live session returned false")
	}
	if r.Delete(s.ID) {
		t.Error("double Delete returned true")
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d after delete", r.Len())
	}
	// Explicit deletes are not counted as evictions.
	if lru, idle := r.Evicted(); lru != 0 || idle != 0 {
		t.Errorf("Evicted = (%d,%d), want (0,0)", lru, idle)
	}
}

func TestRegistryIDsUnique(t *testing.T) {
	r, _ := testRegistry(RegistryConfig{MaxSessions: 4})
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		s := r.Create(fmt.Sprintf("w%d", i), nil, nil, nil)
		if seen[s.ID] {
			t.Fatalf("duplicate session ID %s", s.ID)
		}
		seen[s.ID] = true
	}
}
