package exec

import (
	"bytes"
	"slices"
	"testing"
)

// checkMapOutput holds a map output to the layout the old code wrote
// bucket by bucket: reducer q's range is the rows with bucketOf(key) ==
// q, in input order, and the slab is those ranges laid end to end.
func checkMapOutput(t *testing.T, rows []Row, reduceParts int) {
	t.Helper()
	o := newMapOutput(rows, reduceParts, make([]int32, len(rows)))
	if len(o.off) != reduceParts+1 || o.off[0] != 0 || int(o.off[reduceParts]) != len(rows) {
		t.Fatalf("offset table %v for %d rows over %d reduce partitions", o.off, len(rows), reduceParts)
	}
	var whole []Row
	for q := 0; q < reduceParts; q++ {
		var mine []Row
		for _, r := range rows {
			if bucketOf(r.Key, reduceParts) == q {
				mine = append(mine, r)
			}
		}
		got := o.bucket(q)
		if got == nil || !slices.Equal(got, mine) {
			t.Errorf("bucket %d of %d: %d rows (nil %v), want the %d rows that hash there, in input order", q, reduceParts, len(got), got == nil, len(mine))
		}
		whole = append(whole, mine...)
	}
	if !slices.Equal(o.slab, whole) {
		t.Errorf("slab is not the buckets laid end to end (%d rows, want %d)", len(o.slab), len(whole))
	}
}

func TestMapOutputLayout(t *testing.T) {
	same := make([]Row, 40)
	for i := range same {
		same[i] = Row{Key: 7, Val: uint64(i)}
	}
	cases := []struct {
		name        string
		rows        []Row
		reduceParts int
	}{
		{"no-rows", nil, 4},
		{"one-row", []Row{{Key: 3, Val: 9}}, 5},
		{"one-reducer", GenPartition(1, 0, 0, 64, 0), 1},
		{"uniform", GenPartition(2, 1, 3, 300, 0.001), 7},
		{"skewed", GenPartition(3, 2, 1, 300, 0.9), 16},
		{"one-key", same, 8},
		{"more-reducers-than-rows", GenPartition(4, 0, 0, 5, 0), 64},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkMapOutput(t, c.rows, c.reduceParts) })
	}
}

// TestEmptyMapOutputIsPresent pins the distinction a reducer relies on:
// a map task that produced no rows still has an entry, whose every range
// is empty (and not nil: gather reads nil as lost); only a lost output
// has none.
func TestEmptyMapOutputIsPresent(t *testing.T) {
	si := &shuffleInfo{id: 1, out: make([]mapOutput, 4)}
	si.put(2, newMapOutput(nil, 6, nil))
	o, ok := si.get(2)
	if !ok {
		t.Fatal("empty map output is missing from the table")
	}
	for q := 0; q < 6; q++ {
		if b := o.bucket(q); b == nil || len(b) != 0 {
			t.Errorf("bucket %d of an empty map output has %d rows (nil %v)", q, len(b), b == nil)
		}
	}
	if _, ok := si.get(3); ok {
		t.Error("a map output nobody wrote is present")
	}
	// First write wins, as for blocks: a recompute racing the original
	// cannot swap the rows under a reader.
	si.put(2, newMapOutput([]Row{{1, 1}}, 6, make([]int32, 1)))
	if o, _ := si.get(2); len(o.slab) != 0 {
		t.Error("second put replaced the stored map output")
	}
}

// TestWipeClearsTheWorkersMapOutputs: a kill forgets the map outputs its
// worker served — map partitions 1 and 3 of every shuffle, on two
// workers — keeps the other worker's, and leaves a bucket a reducer
// already holds readable.
func TestWipeClearsTheWorkersMapOutputs(t *testing.T) {
	e := &Engine{nodes: []*node{newNode(0), newNode(1)}, shuffles: map[int]*shuffleInfo{}}
	rows := GenPartition(1, 0, 0, 20, 0.5)
	for sid := 0; sid < 2; sid++ {
		si := &shuffleInfo{id: sid, out: make([]mapOutput, 4)}
		for m := range si.out {
			si.put(m, newMapOutput(rows, 3, make([]int32, len(rows))))
		}
		e.shuffles[sid] = si
	}
	held, _ := e.shuffles[0].get(1)
	want := slices.Clone(held.bucket(0))
	e.wipe(1)
	for sid, si := range e.shuffles {
		for m := range si.out {
			if _, ok := si.get(m); ok != (m%2 == 0) {
				t.Errorf("shuffle %d map output %d present %v after worker 1's wipe", sid, m, ok)
			}
		}
	}
	if e.nodes[1].curEpoch() != 1 || e.nodes[0].curEpoch() != 0 {
		t.Errorf("epochs %d, %d after worker 1's wipe, want 0, 1", e.nodes[0].curEpoch(), e.nodes[1].curEpoch())
	}
	if !slices.Equal(held.bucket(0), want) {
		t.Error("a bucket held across the wipe changed")
	}
}

// FuzzMapOutput: any rows over any reducer count, each reducer's bucket
// is exactly the rows that hash to it.
func FuzzMapOutput(f *testing.F) {
	f.Add(EncodeRows(GenPartition(1, 0, 0, 33, 0.5)), uint8(4))
	f.Add([]byte{}, uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 3*rowBytes), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, parts uint8) {
		rows, err := DecodeRows(data[:len(data)/rowBytes*rowBytes])
		if err != nil {
			t.Fatal(err)
		}
		checkMapOutput(t, rows, int(parts)%64+1)
	})
}
