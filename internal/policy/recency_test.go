package policy

import (
	"slices"
	"testing"

	"mrdspark/internal/block"
)

// recencyModel is the naive reference for Recency: a slice ordered from
// least to most recently used, every operation a linear scan.
type recencyModel []block.ID

func (m *recencyModel) remove(id block.ID) bool {
	i := slices.Index(*m, id)
	if i < 0 {
		return false
	}
	*m = slices.Delete(*m, i, i+1)
	return true
}

func (m *recencyModel) promote(id block.ID) bool {
	if !m.remove(id) {
		return false
	}
	*m = append(*m, id)
	return true
}

func (m *recencyModel) touch(id block.ID) bool {
	if m.promote(id) {
		return false
	}
	*m = append(*m, id)
	return true
}

func (m recencyModel) victim(evictable func(block.ID) bool) (block.ID, bool) {
	if i := slices.IndexFunc(m, evictable); i >= 0 {
		return m[i], true
	}
	return block.ID{}, false
}

// FuzzRecency drives Recency and the slice model with the same script —
// each byte is an operation (top two bits: touch, promote, remove,
// filtered victim then remove) on one of 64 blocks — and compares every
// return value and the whole order after every step. The slab must
// never hold more slots than the largest population the script reached:
// a removed entry's slot is the next insert's.
func FuzzRecency(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03, 0x41, 0x82, 0x04, 0xc0, 0xc1})
	f.Fuzz(func(t *testing.T, script []byte) {
		l := NewRecency()
		var model recencyModel
		peak := 0
		for step, b := range script {
			key := int(b & 0x3f)
			id := block.ID{RDD: key >> 3, Partition: key & 7}
			switch b >> 6 {
			case 0:
				if got, want := l.Touch(id), model.touch(id); got != want {
					t.Fatalf("step %d: Touch(%v) = %v, model %v", step, id, got, want)
				}
			case 1:
				if got, want := l.Promote(id), model.promote(id); got != want {
					t.Fatalf("step %d: Promote(%v) = %v, model %v", step, id, got, want)
				}
			case 2:
				if got, want := l.Remove(id), model.remove(id); got != want {
					t.Fatalf("step %d: Remove(%v) = %v, model %v", step, id, got, want)
				}
			case 3:
				// The filter depends on the key, so scripts reach
				// victims in the middle of the order and empty answers.
				evictable := func(v block.ID) bool { return (v.RDD+v.Partition+key)%3 != 0 }
				got, ok := l.Victim(evictable)
				want, wantOK := model.victim(evictable)
				if got != want || ok != wantOK {
					t.Fatalf("step %d: Victim = %v, %v; model %v, %v", step, got, ok, want, wantOK)
				}
				if ok {
					l.Remove(got)
					model.remove(want)
				}
			}
			peak = max(peak, len(model))
			if l.Len() != len(model) || l.Contains(id) != slices.Contains(model, id) {
				t.Fatalf("step %d: Len %d, Contains(%v) %v; model holds %v", step, l.Len(), id, l.Contains(id), model)
			}
			var order []block.ID
			for c := l.Oldest(); c != 0; c = l.Newer(c) {
				order = append(order, l.ID(c))
			}
			if !slices.Equal(order, []block.ID(model)) {
				t.Fatalf("step %d: order %v, model %v", step, order, model)
			}
			if slots := len(l.entries) - 1; slots > peak {
				t.Fatalf("step %d: %d slots for a peak population of %d", step, slots, peak)
			}
		}
	})
}

// TestRecencyWarmCycleDoesNotAllocate holds the reason the list is a
// slab: once a store has reached its population, a block arriving,
// being read and leaving costs no allocation.
func TestRecencyWarmCycleDoesNotAllocate(t *testing.T) {
	l := NewRecency()
	for p := 0; p < 64; p++ {
		l.Touch(bid(1, p))
	}
	l.Remove(bid(1, 7))
	allocs := testing.AllocsPerRun(1000, func() {
		l.Touch(bid(2, 0))
		l.Promote(bid(1, 3))
		l.Remove(bid(2, 0))
	})
	if allocs != 0 {
		t.Fatalf("warmed touch -> promote -> remove cycle allocates %.1f objects, want 0", allocs)
	}
}
