package policy

import (
	"testing"

	"mrdspark/internal/block"
)

// op is one step of a scripted access pattern.
type op struct {
	kind string // "add", "access", "remove"
	id   block.ID
}

func opAdd(r, p int) op    { return op{"add", bid(r, p)} }
func opAccess(r, p int) op { return op{"access", bid(r, p)} }
func opRemove(r, p int) op { return op{"remove", bid(r, p)} }

// drain applies the script to a fresh node policy and then evicts until
// the node is empty, returning the full eviction order — the complete
// preference ranking the policy assigns to the resident set.
func drain(t *testing.T, n Policy, ops []op) []block.ID {
	t.Helper()
	for _, o := range ops {
		switch o.kind {
		case "add":
			n.OnAdd(o.id)
		case "access":
			n.OnAccess(o.id)
		case "remove":
			n.OnRemove(o.id)
		}
	}
	var got []block.ID
	for {
		v, ok := n.Victim(all)
		if !ok {
			return got
		}
		got = append(got, v)
		n.OnRemove(v)
	}
}

// TestEvictionOrder scripts an access pattern per policy and asserts
// the complete eviction order, LFU, GDS and hyperbolic side by side.
func TestEvictionOrder(t *testing.T) {
	cases := []struct {
		name    string
		factory Factory
		ops     []op
		order   []block.ID
	}{
		{
			name:    "LFU by frequency",
			factory: NewLFU(),
			ops: []op{
				opAdd(1, 0), opAdd(2, 0), opAdd(3, 0),
				opAccess(2, 0), opAccess(2, 0), opAccess(3, 0),
			},
			order: []block.ID{bid(1, 0), bid(3, 0), bid(2, 0)},
		},
		{
			name:    "LFU ties break by least recent use",
			factory: NewLFU(),
			ops: []op{
				opAdd(1, 0), opAdd(2, 0),
				opAccess(2, 0), opAccess(1, 0), // equal counts; 2 is older
			},
			order: []block.ID{bid(2, 0), bid(1, 0)},
		},
		{
			name:    "LFU forgets removed blocks",
			factory: NewLFU(),
			ops: []op{
				opAdd(1, 0), opAdd(2, 0), opAccess(1, 0),
				opRemove(1, 0), opAdd(3, 0),
			},
			order: []block.ID{bid(2, 0), bid(3, 0)},
		},
		{
			name:    "GDS uniform costs tie-break by block ID",
			factory: NewGDS(),
			ops:     []op{opAdd(2, 1), opAdd(1, 0), opAdd(1, 1)},
			order:   []block.ID{bid(1, 0), bid(1, 1), bid(2, 1)},
		},
		{
			name:    "hyperbolic by hits per residence time",
			factory: NewHyperbolic(),
			ops: []op{
				opAdd(1, 0), opAdd(2, 0), opAdd(3, 0),
				opAccess(1, 0), opAccess(1, 0), opAccess(1, 0), opAccess(1, 0),
				opAccess(2, 0), opAccess(2, 0),
			},
			// Equal ages to within the clock skew of insertion order;
			// hit counts 5, 3, 1 rank the drain.
			order: []block.ID{bid(3, 0), bid(2, 0), bid(1, 0)},
		},
		{
			name:    "hyperbolic old idle block loses to young one",
			factory: NewHyperbolic(),
			ops: []op{
				opAdd(1, 0),
				// Unrelated traffic ages block 1 without hits.
				opAdd(9, 0), opAccess(9, 0), opAccess(9, 0), opAccess(9, 0),
				opAccess(9, 0), opAccess(9, 0), opAccess(9, 0), opRemove(9, 0),
				opAdd(2, 0),
			},
			order: []block.ID{bid(1, 0), bid(2, 0)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := drain(t, tc.factory.NewNodePolicy(0), tc.ops)
			if len(got) != len(tc.order) {
				t.Fatalf("evicted %v, want %v", got, tc.order)
			}
			for i := range got {
				if got[i] != tc.order[i] {
					t.Fatalf("eviction %d = %v, want %v (full order %v vs %v)",
						i, got[i], tc.order[i], got, tc.order)
				}
			}
		})
	}
}

// TestVictimRespectsFilter pins the evictable-filter contract for the
// policies above: a protected preferred victim falls through to the
// next choice, and a fully protected node yields no victim.
func TestVictimRespectsFilter(t *testing.T) {
	factories := []Factory{NewLFU(), NewGDS(), NewHyperbolic()}
	for _, f := range factories {
		t.Run(f.Name(), func(t *testing.T) {
			n := f.NewNodePolicy(0)
			low, high := bid(1, 0), bid(2, 0)
			n.OnAdd(low)
			n.OnAdd(high)
			n.OnAccess(high) // every policy now prefers evicting low
			v, ok := n.Victim(func(id block.ID) bool { return id != low })
			if !ok || v != high {
				t.Errorf("filtered victim = %v, want %v", v, high)
			}
			if _, ok := n.Victim(func(block.ID) bool { return false }); ok {
				t.Error("victim despite nothing evictable")
			}
		})
	}
}

// TestRecencyListOrder covers the shared recency ordering the same
// way: scripted touches, then a full drain through Victim.
func TestRecencyListOrder(t *testing.T) {
	cases := []struct {
		name  string
		ops   []op // kind "add" means touch here
		order []block.ID
	}{
		{
			name:  "insertion order",
			ops:   []op{opAdd(1, 0), opAdd(2, 0), opAdd(3, 0)},
			order: []block.ID{bid(1, 0), bid(2, 0), bid(3, 0)},
		},
		{
			name:  "touch refreshes recency",
			ops:   []op{opAdd(1, 0), opAdd(2, 0), opAdd(1, 0)},
			order: []block.ID{bid(2, 0), bid(1, 0)},
		},
		{
			name:  "remove drops the entry",
			ops:   []op{opAdd(1, 0), opAdd(2, 0), opAdd(3, 0), opRemove(2, 0)},
			order: []block.ID{bid(1, 0), bid(3, 0)},
		},
		{
			name:  "promote refreshes a tracked block and ignores an absent one",
			ops:   []op{opAdd(1, 0), opAdd(2, 0), opAccess(1, 0), opAccess(9, 9)},
			order: []block.ID{bid(2, 0), bid(1, 0)},
		},
		{
			name:  "a vacated slot is reused without disturbing the order",
			ops:   []op{opAdd(1, 0), opAdd(2, 0), opRemove(1, 0), opRemove(1, 0), opAdd(3, 0), opAdd(1, 0)},
			order: []block.ID{bid(2, 0), bid(3, 0), bid(1, 0)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewRecency()
			for _, o := range tc.ops {
				switch o.kind {
				case "add":
					l.Touch(o.id)
				case "access":
					l.Promote(o.id)
				case "remove":
					l.Remove(o.id)
				}
			}
			if l.Len() != len(tc.order) {
				t.Fatalf("len = %d, want %d", l.Len(), len(tc.order))
			}
			var got []block.ID
			for {
				v, ok := l.Victim(all)
				if !ok {
					break
				}
				got = append(got, v)
				if !l.Contains(v) {
					t.Fatalf("victim %v not tracked", v)
				}
				l.Remove(v)
			}
			for i := range tc.order {
				if i >= len(got) || got[i] != tc.order[i] {
					t.Fatalf("drain = %v, want %v", got, tc.order)
				}
			}
		})
	}
}
