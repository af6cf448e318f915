package policy

import (
	"testing"

	"mrdspark/internal/block"
)

func TestHyperbolicPrefersHighHitRate(t *testing.T) {
	n := NewHyperbolic().NewNodePolicy(0).(*hyperbolicNode)
	hot := bid(1, 0)
	cold := bid(2, 0)
	n.OnAdd(hot)
	n.OnAdd(cold)
	// hot earns many hits, cold none: cold's priority decays with the
	// logical clock.
	for i := 0; i < 10; i++ {
		n.OnAccess(hot)
	}
	v, ok := n.Victim(all)
	if !ok || v != cold {
		t.Errorf("victim = %v, want cold block", v)
	}
}

func TestHyperbolicAgeDecaysPriority(t *testing.T) {
	n := NewHyperbolic().NewNodePolicy(0).(*hyperbolicNode)
	old := bid(1, 0)
	young := bid(2, 0)
	n.OnAdd(old)
	// Advance the clock with unrelated traffic so old's residence
	// grows without hits.
	filler := bid(9, 0)
	n.OnAdd(filler)
	for i := 0; i < 50; i++ {
		n.OnAccess(filler)
	}
	n.OnRemove(filler)
	n.OnAdd(young)
	v, ok := n.Victim(all)
	if !ok || v != old {
		t.Errorf("victim = %v, want the aged block", v)
	}
}

func TestHyperbolicRemoveAndFilter(t *testing.T) {
	n := NewHyperbolic().NewNodePolicy(0)
	a, b := bid(1, 0), bid(2, 0)
	n.OnAdd(a)
	n.OnAdd(b)
	n.OnRemove(a)
	v, ok := n.Victim(all)
	if !ok || v != b {
		t.Errorf("victim = %v", v)
	}
	if _, ok := n.Victim(func(block.ID) bool { return false }); ok {
		t.Error("victim despite filter")
	}
	n.OnRemove(b)
	if _, ok := n.Victim(all); ok {
		t.Error("victim from empty node")
	}
}

func TestGDSInflationAges(t *testing.T) {
	n := NewGDS().NewNodePolicy(0).(*gdsNode)
	a, b := bid(1, 0), bid(2, 0)
	n.OnAdd(a) // credit 1 (L=0)
	v, ok := n.Victim(all)
	if !ok || v != a {
		t.Fatalf("victim = %v", v)
	}
	n.OnRemove(a) // inflation L rises to 1
	n.OnAdd(a)    // credit 2
	n.OnAdd(b)    // credit 2
	// Access a: refreshed to current L+1 = 2 (same). Evict: deterministic
	// ID tiebreak among equal credits.
	v, ok = n.Victim(all)
	if !ok || v != a {
		t.Errorf("victim = %v, want lowest-credit / lowest-ID", v)
	}
}

func TestObliviousFactoryNames(t *testing.T) {
	if NewHyperbolic().Name() != "Hyperbolic" || NewGDS().Name() != "GDS" {
		t.Error("names wrong")
	}
}

func TestHyperbolicDeterministic(t *testing.T) {
	// Same operation sequence, same victim, every time: the logical
	// clock makes the earlier-added block slightly older (lower
	// priority), so it is the deterministic choice.
	for trial := 0; trial < 5; trial++ {
		n := NewHyperbolic().NewNodePolicy(0)
		n.OnAdd(bid(2, 1))
		n.OnAdd(bid(1, 3))
		n.OnAccess(bid(2, 1))
		n.OnAccess(bid(1, 3))
		v, _ := n.Victim(all)
		if v != bid(2, 1) {
			t.Fatalf("trial %d: victim %v, want the earlier-added block", trial, v)
		}
	}
}
