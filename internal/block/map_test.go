package block

import (
	"math"
	"math/rand"
	"testing"
)

// mapModel drives a Map and a builtin map with the same operations and
// fails on the first answer that differs.
type mapModel struct {
	t   testing.TB
	m   Map[int]
	ref map[ID]int
	n   int // steps taken, for messages and as the value Put stores
}

const (
	opPut = iota
	opGet
	opHas
	opDelete
	opClear
	opEach
)

func (mm *mapModel) step(op int, id ID) {
	mm.t.Helper()
	mm.n++
	switch op {
	case opPut:
		mm.m.Put(id, mm.n)
		mm.ref[id] = mm.n
	case opGet:
		got, ok := mm.m.Get(id)
		if want, wantOK := mm.ref[id]; got != want || ok != wantOK {
			mm.t.Fatalf("step %d: Get(%v) = %d, %v; want %d, %v", mm.n, id, got, ok, want, wantOK)
		}
	case opHas:
		if _, want := mm.ref[id]; mm.m.Has(id) != want {
			mm.t.Fatalf("step %d: Has(%v) = %v; want %v", mm.n, id, !want, want)
		}
	case opDelete:
		_, want := mm.ref[id]
		delete(mm.ref, id)
		if got := mm.m.Delete(id); got != want {
			mm.t.Fatalf("step %d: Delete(%v) = %v; want %v", mm.n, id, got, want)
		}
	case opClear:
		mm.m.Clear()
		clear(mm.ref)
	case opEach:
		mm.checkEach()
	}
	if mm.m.Len() != len(mm.ref) {
		mm.t.Fatalf("step %d: Len() = %d; want %d", mm.n, mm.m.Len(), len(mm.ref))
	}
	if 2*mm.m.n > len(mm.m.keys) { // a full table would probe for ever
		mm.t.Fatalf("step %d: %d entries in %d slots, load above one half", mm.n, mm.m.n, len(mm.m.keys))
	}
}

// checkEach requires Each to visit exactly the model's entries, once
// each, and the same sequence on a second walk.
func (mm *mapModel) checkEach() {
	mm.t.Helper()
	var order []ID
	mm.m.Each(func(id ID, v int) {
		if want, ok := mm.ref[id]; !ok || v != want {
			mm.t.Fatalf("step %d: Each visited %v = %d; the model has %d, %v", mm.n, id, v, want, ok)
		}
		order = append(order, id)
	})
	if len(order) != len(mm.ref) {
		mm.t.Fatalf("step %d: Each visited %d entries; want %d", mm.n, len(order), len(mm.ref))
	}
	seen := make(map[ID]bool, len(order))
	for _, id := range order {
		if seen[id] {
			mm.t.Fatalf("step %d: Each visited %v twice", mm.n, id)
		}
		seen[id] = true
	}
	i := 0
	mm.m.Each(func(id ID, _ int) {
		if order[i] != id {
			mm.t.Fatalf("step %d: a second Each visits %v at %d where the first visited %v", mm.n, id, i, order[i])
		}
		i++
	})
}

// TestMapMatchesBuiltin: 200 k random steps against a builtin map. The
// dense IDs are a workload's — 40 RDDs of 60 partitions, whose keys
// differ in a few low bits, so probe runs collide, growth lands in the
// middle of one and deletions shift entries back, across the end of the
// array too — and the sparse ones reach the top of the key range. The
// mix swings between growing and shrinking so that the table is probed
// at every load it can have.
func TestMapMatchesBuiltin(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	mm := &mapModel{t: t, ref: map[ID]int{}}
	var sparse []ID // sparse IDs put so far, so that lookups and deletes can hit
	draw := func() ID {
		switch r := rng.Intn(10); {
		case r < 7:
			return ID{RDD: rng.Intn(40), Partition: rng.Intn(60)}
		case r < 9 && len(sparse) > 0:
			return sparse[rng.Intn(len(sparse))]
		default:
			id := ID{RDD: int(rng.Int31()), Partition: int(rng.Int31())}
			if rng.Intn(8) == 0 {
				id = ID{RDD: math.MaxInt32, Partition: math.MaxInt32 - rng.Intn(4)}
			}
			sparse = append(sparse, id)
			return id
		}
	}
	for step := 0; step < 200_000; step++ {
		puts := 6 // of 10: growing
		if step/10_000%2 == 1 {
			puts = 2 // shrinking
		}
		switch r := rng.Intn(10_000); {
		case r == 0:
			mm.step(opClear, ID{})
		case r < 20:
			mm.step(opEach, ID{})
		case r%10 < puts:
			mm.step(opPut, draw())
		case r%10 < puts+2:
			mm.step(opDelete, draw())
		case r%2 == 0:
			mm.step(opGet, draw())
		default:
			mm.step(opHas, draw())
		}
	}
	mm.checkEach()
}

// TestMapDeleteShiftsAcrossWrap pins the one case of backward-shift
// deletion a random walk reaches only by luck: a probe run that starts
// in the table's last slot and continues at slot 0. Deleting its head
// must pull the entries at the front of the array back across the end.
func TestMapDeleteShiftsAcrossWrap(t *testing.T) {
	var m Map[int]
	m.Put(ID{0, 0}, 0) // allocates the first table
	m.Delete(ID{0, 0})
	last := uint64(len(m.keys) - 1)
	var run []ID // IDs whose home is the last slot
	for p := 0; len(run) < 3; p++ {
		if key, _ := pack(ID{1, p}); m.home(key) == last {
			run = append(run, ID{1, p})
		}
	}
	for i, id := range run {
		m.Put(id, i)
	}
	if m.keys[last] == 0 || m.keys[0] == 0 || m.keys[1] == 0 {
		t.Fatalf("the run does not wrap: keys = %v", m.keys)
	}
	if !m.Delete(run[0]) {
		t.Fatalf("Delete(%v) = false", run[0])
	}
	for i, id := range run[1:] {
		if v, ok := m.Get(id); !ok || v != i+1 {
			t.Errorf("after deleting the run's head, Get(%v) = %d, %v; want %d, true", id, v, ok, i+1)
		}
	}
	if m.keys[last] == 0 || m.keys[0] == 0 || m.keys[1] != 0 {
		t.Errorf("the run was not shifted back across the end: keys = %v", m.keys)
	}
}

// TestMapRejectsOutOfRangeIDs: an ID that does not fit the packed key is
// never truncated into one that does. Put panics; the lookups miss, even
// when the ID's low 32 bits name a block that is there.
func TestMapRejectsOutOfRangeIDs(t *testing.T) {
	var m Map[int]
	m.Put(ID{5, 7}, 1)
	m.Put(ID{0, 0}, 2)
	m.Put(ID{math.MaxInt32, math.MaxInt32}, 3)
	if v, ok := m.Get(ID{math.MaxInt32, math.MaxInt32}); !ok || v != 3 {
		t.Errorf("Get(largest ID) = %d, %v; want 3, true", v, ok)
	}
	outside := []ID{
		{RDD: 1<<32 + 5, Partition: 7}, {RDD: 5, Partition: 1<<32 + 7},
		{RDD: -1, Partition: 0}, {RDD: 0, Partition: -1}, {RDD: math.MinInt64, Partition: 0},
		{RDD: math.MaxInt32 + 1, Partition: 0}, {RDD: 0, Partition: math.MaxInt32 + 1},
		{RDD: 1 << 32, Partition: 0}, {RDD: -1, Partition: -1}, {RDD: math.MaxInt64, Partition: math.MaxInt64},
	}
	for _, id := range outside {
		if v, ok := m.Get(id); ok || v != 0 {
			t.Errorf("Get(%v) = %d, %v; want absent", id, v, ok)
		}
		if m.Has(id) {
			t.Errorf("Has(%v) = true", id)
		}
		if m.Delete(id) {
			t.Errorf("Delete(%v) = true", id)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Put(%v) did not panic", id)
				}
			}()
			m.Put(id, 9)
		}()
	}
	if m.Len() != 3 {
		t.Errorf("Len() = %d after rejected operations; want 3", m.Len())
	}
}

// TestMapZeroValue: the zero Map answers every read and takes a Put.
func TestMapZeroValue(t *testing.T) {
	var m Map[string]
	if m.Len() != 0 || m.Has(ID{1, 2}) || m.Delete(ID{1, 2}) {
		t.Error("the zero Map is not empty")
	}
	m.Each(func(ID, string) { t.Error("Each visited an entry of the zero Map") })
	m.Clear()
	m.Put(ID{1, 2}, "a")
	if v, ok := m.Get(ID{1, 2}); !ok || v != "a" || m.Len() != 1 {
		t.Errorf("after Put on the zero Map: Get = %q, %v, Len = %d", v, ok, m.Len())
	}
}

// TestMapReserve: a reserved table takes that many entries without
// doubling, a reserve on a populated table keeps its entries, and a
// smaller reserve never shrinks it.
func TestMapReserve(t *testing.T) {
	var m Map[int]
	m.Put(ID{7, 7}, 77)
	m.Reserve(500)
	size := len(m.keys)
	for p := 0; p < 499; p++ {
		m.Put(ID{1, p}, p)
	}
	if len(m.keys) != size {
		t.Errorf("a table reserved for 500 entries grew from %d to %d slots by its 500th", size, len(m.keys))
	}
	m.Reserve(10)
	if len(m.keys) != size {
		t.Errorf("Reserve(10) resized a %d-slot table to %d", size, len(m.keys))
	}
	if v, ok := m.Get(ID{7, 7}); !ok || v != 77 || m.Len() != 500 {
		t.Errorf("after Reserve: Get = %d, %v, Len = %d; want 77, true, 500", v, ok, m.Len())
	}
	for p := 0; p < 499; p++ {
		if v, _ := m.Get(ID{1, p}); v != p {
			t.Fatalf("Get(1/%d) = %d", p, v)
		}
	}
}

// TestMapSteadyStateAllocs: fill, Clear, refill — the simulator's
// per-stage resolved set — allocates nothing once the table has reached
// its size, and neither does churn at a steady population.
func TestMapSteadyStateAllocs(t *testing.T) {
	var m Map[Info]
	fill := func() {
		for r := 0; r < 20; r++ {
			for p := 0; p < 50; p++ {
				m.Put(ID{r, p}, Info{Size: int64(p)})
			}
		}
	}
	fill()
	if n := testing.AllocsPerRun(20, func() {
		m.Clear()
		fill()
		for p := 0; p < 50; p++ {
			m.Delete(ID{3, p})
			m.Put(ID{20 + p, 3}, Info{})
			m.Delete(ID{20 + p, 3})
		}
	}); n != 0 {
		t.Errorf("Clear and refill at steady capacity allocate %v objects; want 0", n)
	}
	if m.Len() != 950 {
		t.Errorf("Len() = %d; want 950", m.Len())
	}
}

// FuzzBlockMap runs an op-coded byte string — three bytes a step — on
// the model of TestMapMatchesBuiltin. The dense IDs fit a table of a few
// dozen slots, so a short input already grows it, collides and wraps.
func FuzzBlockMap(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 1, 2, 3, 1, 1, 5, 1, 1, 4, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		mm := &mapModel{t: t, ref: map[ID]int{}}
		for ; len(ops) >= 3; ops = ops[3:] {
			code, a, b := ops[0], int(ops[1]), int(ops[2])
			id := ID{RDD: a % 8, Partition: b % 32}
			if code&0x80 != 0 { // sparse: up to the top of the key range
				id = ID{RDD: a<<23 | b, Partition: b<<23 | a<<15 | 0x7fff}
			}
			switch code & 7 {
			case 0, 1, 2:
				mm.step(opPut, id)
			case 3:
				mm.step(opGet, id)
			case 4:
				mm.step(opHas, id)
			case 5, 6:
				mm.step(opDelete, id)
			case 7:
				if a%16 == 0 {
					mm.step(opClear, id)
				} else {
					mm.step(opEach, id)
				}
			}
		}
		mm.checkEach()
	})
}
