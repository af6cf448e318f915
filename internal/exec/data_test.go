package exec

import (
	"bytes"
	"hash/fnv"
	"math"
	"testing"
)

// digestOracle is the digest contract spelled out: hash/fnv's FNV-64a
// over the canonical encoding, one row at a time.
func digestOracle(rows []Row) uint64 {
	h := fnv.New64a()
	var buf [rowBytes]byte
	for _, r := range rows {
		putRow(buf[:], r)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestDigestLanesMatchOracle: each lane's chain is the oracle's whatever
// runs beside it — for every way four lengths can relate: absent lanes,
// any one the shortest, any two equal, all equal.
func TestDigestLanesMatchOracle(t *testing.T) {
	src := GenPartition(5, 1, 0, 4*301, 0.3)
	lengths := []int{0, 1, 77, 301}
	for c := 0; c < len(lengths)*len(lengths)*len(lengths)*len(lengths); c++ {
		var p [lanes][]Row
		var lens [lanes]int
		for l, pick := 0, c; l < lanes; l, pick = l+1, pick/len(lengths) {
			lens[l] = lengths[pick%len(lengths)]
			p[l] = src[l*301:][:lens[l]]
		}
		got := digestLanes(p)
		for l := range p {
			if want := digestOracle(p[l]); got[l] != want {
				t.Errorf("lengths %v: lane %d digests %#x, want %#x", lens, l, got[l], want)
			}
		}
		if got, want := DigestRows(p[0]), digestOracle(p[0]); got != want {
			t.Errorf("DigestRows of %d rows = %#x, want %#x", lens[0], got, want)
		}
	}
}

// TestGenPartitionGoldens pins the generated data: if these digests
// move, every executed workload's outputs, shuffles and goldens move
// with them — which is exactly the seed-stability the run cache and
// the sim-vs-exec differential legs depend on.
func TestGenPartitionGoldens(t *testing.T) {
	cases := []struct {
		name            string
		seed            int64
		rdd, part, rows int
		skew            float64
		want            uint64
	}{
		{"defaults", 1, 0, 0, 0, 0, 0x608341f78a80b2ed},
		{"defaults-part1", 1, 0, 1, 0, 0, 0x9c8b45c9acf0a6e6},
		{"defaults-rdd2", 1, 2, 0, 0, 0, 0x74aca3f23e39accc},
		{"seed42", 42, 0, 0, 0, 0, 0x75b3edc9daee0cec},
		{"rows64", 1, 0, 0, 64, 0, 0x22b1e8374af95b80},
		{"uniform-ish", 7, 3, 2, 128, 0.01, 0xaf02abb6ce9418d7},
		{"heavy-skew", 7, 3, 2, 128, 0.9, 0x598a4c3c05a79f2a},
	}
	for _, c := range cases {
		got := DigestRows(GenPartition(c.seed, c.rdd, c.part, c.rows, c.skew))
		if got != c.want {
			t.Errorf("%s: digest %#x, want %#x", c.name, got, c.want)
		}
	}
}

// TestGenPartitionProperties checks the distribution knobs do what the
// engine assumes: determinism, row count, and that skew concentrates
// keys on the hot set.
func TestGenPartitionProperties(t *testing.T) {
	a := GenPartition(3, 1, 0, 1000, 0.5)
	b := GenPartition(3, 1, 0, 1000, 0.5)
	if len(a) != 1000 {
		t.Fatalf("got %d rows, want 1000", len(a))
	}
	if DigestRows(a) != DigestRows(b) {
		t.Fatal("same parameters produced different rows")
	}
	hot := 0
	for _, r := range a {
		if r.Key < hotKeys {
			hot++
		}
	}
	if hot < 400 || hot > 600 {
		t.Errorf("skew 0.5 put %d/1000 rows on the hot set, want ~500", hot)
	}
	uni := GenPartition(3, 1, 0, 1000, 0.001)
	hot = 0
	for _, r := range uni {
		if r.Key < hotKeys {
			hot++
		}
	}
	if hot > 100 {
		t.Errorf("near-uniform draw put %d/1000 rows on the hot set", hot)
	}
}

// TestFullSkewIsAllHot is the regression test for the hot-key threshold
// at skew 1, which used to go through uint64(2^64) — an out-of-range
// conversion that read 2^63 on amd64 and put half the rows on the hot
// set. Skew 1 and the largest skew below it must agree.
func TestFullSkewIsAllHot(t *testing.T) {
	for _, skew := range []float64{1, math.Nextafter(1, 0)} {
		hot := 0
		rows := GenPartition(3, 1, 0, 4000, skew)
		for _, r := range rows {
			if r.Key < hotKeys {
				hot++
			}
		}
		if hot != len(rows) {
			t.Errorf("skew %v put %d/%d rows on the hot set, want all", skew, hot, len(rows))
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rows := GenPartition(9, 4, 2, 33, 0.3)
	enc := EncodeRows(rows)
	if len(enc) != 33*rowBytes {
		t.Fatalf("encoded %d bytes, want %d", len(enc), 33*rowBytes)
	}
	dec, err := DecodeRows(enc)
	if err != nil {
		t.Fatal(err)
	}
	if DigestRows(dec) != DigestRows(rows) {
		t.Fatal("round trip changed the rows")
	}
	if _, err := DecodeRows(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated encoding decoded without error")
	}
}

// FuzzRowCodec: any whole number of rows survives decode→encode byte
// for byte, anything else is refused, and the in-place decoder fills
// exactly the rows its input holds — never the row after them.
func FuzzRowCodec(f *testing.F) {
	f.Add(EncodeRows(GenPartition(9, 4, 2, 33, 0.3)))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, rowBytes+5))
	f.Fuzz(func(t *testing.T, b []byte) {
		rows, err := DecodeRows(b)
		if len(b)%rowBytes != 0 {
			if err == nil {
				t.Fatalf("%d bytes decoded without error", len(b))
			}
			b = b[:len(b)/rowBytes*rowBytes]
			if rows, err = DecodeRows(b); err != nil {
				t.Fatal(err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(EncodeRows(rows), b) {
			t.Fatal("decode then encode changed the bytes")
		}
		guard := Row{Key: 0xDEAD, Val: 0xBEEF}
		backing := make([]Row, len(rows)+2)
		backing[len(rows)], backing[len(rows)+1] = guard, guard
		got := decodeInto(backing[:len(rows)+1], b)
		if len(got) != len(rows) || DigestRows(got) != DigestRows(rows) {
			t.Fatalf("decodeInto gave %d rows, want the %d DecodeRows gave", len(got), len(rows))
		}
		if backing[len(rows)] != guard || backing[len(rows)+1] != guard {
			t.Fatal("decodeInto wrote past the rows its input holds")
		}
	})
}

func TestNarrowParents(t *testing.T) {
	cases := []struct {
		parent, child, p int
		lo, hi           int
	}{
		{4, 4, 2, 2, 3},
		{8, 4, 1, 2, 4},
		{4, 8, 5, 2, 3},
		{6, 4, 0, 0, 1},
		{6, 4, 3, 4, 6},
	}
	for _, c := range cases {
		if lo, hi := narrowParents(c.parent, c.child, c.p); lo != c.lo || hi != c.hi {
			t.Errorf("narrowParents(%d,%d,%d) = [%d,%d), want [%d,%d)", c.parent, c.child, c.p, lo, hi, c.lo, c.hi)
		}
	}
}

func TestBucketOfStable(t *testing.T) {
	for parts := 1; parts <= 8; parts++ {
		for key := uint64(0); key < 64; key++ {
			q := bucketOf(key, parts)
			if q < 0 || q >= parts {
				t.Fatalf("bucketOf(%d,%d) = %d out of range", key, parts, q)
			}
		}
	}
}
