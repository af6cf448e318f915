package exec

import (
	"bytes"
	"testing"
)

// checkMapOutput holds a map output to the layout the old code wrote
// bucket by bucket: reducer q's range is EncodeRows of the rows with
// bucketOf(key) == q, in input order, and the slab is those ranges laid
// end to end.
func checkMapOutput(t *testing.T, rows []Row, reduceParts int) {
	t.Helper()
	o := newMapOutput(rows, reduceParts, make([]int32, len(rows)))
	if len(o.off) != reduceParts+1 || o.off[0] != 0 || int(o.off[reduceParts]) != len(rows) {
		t.Fatalf("offset table %v for %d rows over %d reduce partitions", o.off, len(rows), reduceParts)
	}
	var whole []byte
	for q := 0; q < reduceParts; q++ {
		var mine []Row
		for _, r := range rows {
			if bucketOf(r.Key, reduceParts) == q {
				mine = append(mine, r)
			}
		}
		want := EncodeRows(mine)
		if got := o.bucket(q); !bytes.Equal(got, want) {
			t.Errorf("bucket %d of %d: %d bytes, want the %d rows that hash there, in input order", q, reduceParts, len(got), len(mine))
		}
		whole = append(whole, want...)
	}
	if !bytes.Equal(o.slab, whole) {
		t.Errorf("slab is not the per-bucket encodings laid end to end (%d bytes, want %d)", len(o.slab), len(whole))
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
// is empty; only a lost output has none.
func TestEmptyMapOutputIsPresent(t *testing.T) {
	n := newNode(0)
	k := shuffleKey{sid: 1, mapPart: 2}
	n.putOutput(k, newMapOutput(nil, 6, nil))
	o, ok := n.getOutput(k)
	if !ok {
		t.Fatal("empty map output is missing from the store")
	}
	for q := 0; q < 6; q++ {
		if b := o.bucket(q); len(b) != 0 {
			t.Errorf("bucket %d of an empty map output has %d bytes", q, len(b))
		}
	}
	if _, ok := n.getOutput(shuffleKey{sid: 1, mapPart: 3}); ok {
		t.Error("a map output nobody wrote is present")
	}
	// First write wins, as for blocks: a recompute racing the original
	// cannot swap the bytes under a reader.
	n.putOutput(k, newMapOutput([]Row{{1, 1}}, 6, make([]int32, 1)))
	if o, _ := n.getOutput(k); len(o.slab) != 0 {
		t.Error("second put replaced the stored map output")
	}
	n.wipeData()
	if _, ok := n.getOutput(k); ok {
		t.Error("map output survived its worker's wipe")
	}
}

// FuzzMapOutput: any rows over any reducer count, each reducer decodes
// exactly the rows that hash to it.
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
