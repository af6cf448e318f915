package block

import (
	"fmt"
	"math"
	"math/bits"
)

// Map is a hash table keyed by ID, laid out for the traffic the
// accounting stores, the recency lists and the simulator's block sets
// put on it: mostly lookups, of small dense IDs, millions a run. An ID
// packs into one word, so a probe multiplies, shifts and walks a flat
// array of words, where the runtime map hashes the 16-byte struct at
// several times the cost.
//
// Open addressing with linear probing; the values sit in a parallel
// array so a lookup that misses reads keys only. Deletion shifts the
// rest of the probe run back over the hole — there are no tombstones,
// so a table that churns probes no longer than one that only grew. The
// table doubles when an insert would fill more than half of it.
//
// The zero value is an empty map ready to use. A Map holds no lock and
// keeps the accounting stores' contract: one goroutine mutates, and
// the read methods (Len, Get, Has, Each) write nothing, so any number
// of goroutines may read between mutations.
//
// Keys are IDs whose RDD and Partition both lie in [0, math.MaxInt32],
// the bound ParseID puts on a block name. Put panics on any other ID;
// Get, Has and Delete report it absent.
type Map[V any] struct {
	keys  []uint64 // packed ID + 1; 0 marks an empty slot
	vals  []V
	n     int
	shift uint8 // 64 - log2(len(keys))
}

// minMapSlots is the size of a table's first allocation.
const minMapSlots = 8

// pack folds an ID into a slot key: the RDD in the high word, the
// partition in the low one, plus one so that no key is the empty mark.
// ok is false for an ID outside the key range — truncating one to fit
// would alias it to a valid block.
func pack(id ID) (key uint64, ok bool) {
	if uint64(id.RDD)|uint64(id.Partition) > math.MaxInt32 {
		return 0, false
	}
	return (uint64(id.RDD)<<32 | uint64(id.Partition)) + 1, true
}

func unpack(key uint64) ID {
	key--
	return ID{RDD: int(key >> 32), Partition: int(uint32(key))}
}

// home is the slot a key's probe run starts at: Fibonacci hashing, the
// top bits of the key times 2^64/φ, which spreads the consecutive
// partitions of one RDD across the table.
func (m *Map[V]) home(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 >> m.shift }

// find returns the slot holding the ID, or -1.
func (m *Map[V]) find(id ID) int {
	key, ok := pack(id)
	if !ok || m.n == 0 {
		return -1
	}
	mask := uint64(len(m.keys) - 1)
	for i := m.home(key); ; i = (i + 1) & mask {
		switch m.keys[i] {
		case key:
			return int(i)
		case 0:
			return -1
		}
	}
}

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.n }

// Has reports whether the ID has an entry.
func (m *Map[V]) Has(id ID) bool { return m.find(id) >= 0 }

// Get returns the ID's value and whether it has one.
func (m *Map[V]) Get(id ID) (v V, ok bool) {
	if i := m.find(id); i >= 0 {
		return m.vals[i], true
	}
	return v, false
}

// Put sets the ID's value, inserting the entry if it is absent.
func (m *Map[V]) Put(id ID, v V) {
	key, ok := pack(id)
	if !ok {
		panic(fmt.Sprintf("block: Map key %d/%d outside [0, MaxInt32]", id.RDD, id.Partition))
	}
	if 2*(m.n+1) > len(m.keys) && m.find(id) < 0 { // an overwrite needs no room
		m.grow()
	}
	mask := uint64(len(m.keys) - 1)
	i := m.home(key)
	for ; m.keys[i] != 0; i = (i + 1) & mask {
		if m.keys[i] == key {
			m.vals[i] = v
			return
		}
	}
	m.keys[i], m.vals[i] = key, v
	m.n++
}

// grow doubles the table and re-inserts every entry.
func (m *Map[V]) grow() {
	keys, vals := m.keys, m.vals
	size := max(2*len(keys), minMapSlots)
	m.keys, m.vals = make([]uint64, size), make([]V, size)
	m.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for j, key := range keys {
		if key == 0 {
			continue
		}
		i := m.home(key)
		for m.keys[i] != 0 {
			i = (i + 1) & mask
		}
		m.keys[i], m.vals[i] = key, vals[j]
	}
}

// Delete removes the ID's entry and reports whether there was one.
func (m *Map[V]) Delete(id ID) bool {
	at := m.find(id)
	if at < 0 {
		return false
	}
	// Close the hole: an entry further along the run moves back into it
	// when its home slot is at or before the hole, cyclically — it would
	// otherwise be cut off from its home by the empty slot — and leaves a
	// new hole behind it. The run's end is the first empty slot.
	mask := uint64(len(m.keys) - 1)
	hole := uint64(at)
	for j := (hole + 1) & mask; m.keys[j] != 0; j = (j + 1) & mask {
		if (j-m.home(m.keys[j]))&mask >= (j-hole)&mask {
			m.keys[hole], m.vals[hole] = m.keys[j], m.vals[j]
			hole = j
		}
	}
	var zero V
	m.keys[hole], m.vals[hole] = 0, zero
	m.n--
	return true
}

// Clear removes every entry and keeps the table's arrays, so a map
// that is filled and cleared in a loop allocates only while it grows.
func (m *Map[V]) Clear() {
	if m.n == 0 {
		return
	}
	clear(m.keys)
	clear(m.vals)
	m.n = 0
}

// Each calls fn for every entry, in slot order: the same order for the
// same history of operations, but otherwise arbitrary. fn must not
// change the map; a caller that deletes as it goes collects first.
func (m *Map[V]) Each(fn func(ID, V)) {
	for i, key := range m.keys {
		if key != 0 {
			fn(unpack(key), m.vals[i])
		}
	}
}
