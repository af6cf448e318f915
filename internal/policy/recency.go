package policy

import "mrdspark/internal/block"

// Recency is the recency ordering every recency-aware policy keeps
// (LRU, FIFO, LFU, LRC, MemTune, the MRD CacheMonitor): a doubly linked
// list of block IDs, least to most recently used, with lookup by ID.
//
// The entries live in one slab linked by int32 index, and a removed
// entry's slot is reused by the next insert, so a store that has warmed
// up inserts, promotes and removes without allocating — and a victim
// walk reads one contiguous slice instead of chasing heap pointers. The
// lookup is a block.Map from ID to slab index.
type Recency struct {
	// entries[0] is the ring's sentinel: its next is the most recently
	// used entry and its prev the least recently used, so linking and
	// unlinking never branch on the list's ends.
	entries []recencyEntry
	slot    block.Map[int32]
	// free heads the chain of vacated slots (linked through next); 0
	// means none.
	free int32
}

type recencyEntry struct {
	id         block.ID
	prev, next int32
}

// NewRecency returns an empty ordering.
func NewRecency() *Recency {
	return &Recency{entries: make([]recencyEntry, 1)}
}

// Reserve sizes the ordering to track the given number of blocks
// without growing.
func (l *Recency) Reserve(blocks int) {
	if cap(l.entries) < blocks+1 {
		l.entries = append(make([]recencyEntry, 0, blocks+1), l.entries...)
	}
	l.slot.Reserve(blocks)
}

// Touch moves the block to the most-recently-used position, inserting
// it if absent. It reports whether the block was inserted.
func (l *Recency) Touch(id block.ID) (inserted bool) {
	if l.Promote(id) {
		return false
	}
	i := l.free
	if i != 0 {
		l.free = l.entries[i].next
	} else {
		i = int32(len(l.entries))
		l.entries = append(l.entries, recencyEntry{})
	}
	l.entries[i].id = id
	l.slot.Put(id, i)
	l.pushFront(i)
	return true
}

// Promote moves a tracked block to the most-recently-used position and
// reports whether the block is tracked.
func (l *Recency) Promote(id block.ID) bool {
	i, ok := l.slot.Get(id)
	if ok && l.entries[0].next != i {
		l.unlink(i)
		l.pushFront(i)
	}
	return ok
}

// Remove drops the block from the ordering and reports whether it was
// tracked.
func (l *Recency) Remove(id block.ID) bool {
	i, ok := l.slot.Get(id)
	if !ok {
		return false
	}
	l.slot.Delete(id)
	l.unlink(i)
	l.entries[i].next = l.free
	l.free = i
	return true
}

func (l *Recency) unlink(i int32) {
	e := l.entries[i]
	l.entries[e.prev].next = e.next
	l.entries[e.next].prev = e.prev
}

func (l *Recency) pushFront(i int32) {
	first := l.entries[0].next
	l.entries[i].prev, l.entries[i].next = 0, first
	l.entries[first].prev = i
	l.entries[0].next = i
}

// Contains reports whether the block is tracked.
func (l *Recency) Contains(id block.ID) bool { return l.slot.Has(id) }

// Len returns the number of tracked blocks.
func (l *Recency) Len() int { return l.slot.Len() }

// Oldest returns the cursor of the least recently used block, or 0
// when the ordering is empty. A cursor is valid until the next Touch,
// Promote or Remove.
func (l *Recency) Oldest() int32 { return l.entries[0].prev }

// Newer returns the cursor of the next more recently used block, or 0
// past the most recently used one.
func (l *Recency) Newer(cursor int32) int32 { return l.entries[cursor].prev }

// ID returns the block at a non-zero cursor.
func (l *Recency) ID(cursor int32) block.ID { return l.entries[cursor].id }

// Victim returns the least recently used block the filter accepts.
func (l *Recency) Victim(evictable func(block.ID) bool) (block.ID, bool) {
	for c := l.Oldest(); c != 0; c = l.Newer(c) {
		if id := l.ID(c); evictable(id) {
			return id, true
		}
	}
	return block.ID{}, false
}
