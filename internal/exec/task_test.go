package exec

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The reduce side as it was before the radix sort: a hash map per
// operator and a comparison sort of what came out. Obviously right and
// slow — the reference the kernels in task.go are held to.

func refSortRows(rows []Row) []Row {
	out := slices.Clone(rows)
	slices.SortFunc(out, func(a, b Row) int {
		if c := cmp.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return cmp.Compare(a.Val, b.Val)
	})
	return out
}

func refReduceRows(in []Row) []Row {
	sums := map[uint64]uint64{}
	for _, row := range in {
		sums[row.Key] += row.Val
	}
	var out []Row
	for k, v := range sums {
		out = append(out, Row{Key: k, Val: v})
	}
	return refSortRows(out)
}

func refJoinRows(a, b []Row, inner bool) []Row {
	as := map[uint64]uint64{}
	for _, row := range a {
		as[row.Key] += row.Val
	}
	bs := map[uint64]uint64{}
	for _, row := range b {
		bs[row.Key] += row.Val
	}
	var out []Row
	for k, av := range as {
		bv, ok := bs[k]
		if inner && !ok {
			continue
		}
		out = append(out, Row{Key: k, Val: mixVal(av + bv)})
	}
	if !inner {
		for k, bv := range bs {
			if _, ok := as[k]; !ok {
				out = append(out, Row{Key: k, Val: mixVal(bv)})
			}
		}
	}
	return refSortRows(out)
}

func refDistinctRows(in []Row) []Row { return slices.Compact(refSortRows(in)) }

// checkWideKernels holds every reduce-side kernel to its reference on
// the two sides a and b. The kernels own their inputs and work in the
// arena, so each gets its own copy there, as gather would hand it over.
func checkWideKernels(t *testing.T, a, b []Row) {
	t.Helper()
	var mem arena
	own := func(rows []Row) []Row {
		out := mem.alloc(len(rows))
		copy(out, rows)
		return out
	}
	same := func(what string, got, want []Row) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Errorf("%s of %d and %d rows: %d rows out, want the reference's %d (first difference at %d)",
				what, len(a), len(b), len(got), len(want), firstDiff(got, want))
		}
	}
	same("sortRows", sortRows(&mem, own(a)), refSortRows(a))
	same("reduceRows", reduceRows(&mem, own(a)), refReduceRows(a))
	same("distinctRows", distinctRows(&mem, own(a)), refDistinctRows(a))
	same("joinRows", joinRows(&mem, own(a), own(b), true), refJoinRows(a, b, true))
	same("joinRows outer", joinRows(&mem, own(a), own(b), false), refJoinRows(a, b, false))
	same("joinRows swapped", joinRows(&mem, own(b), own(a), true), refJoinRows(b, a, true))
}

func firstDiff(a, b []Row) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// keyed draws n rows whose keys are key(rng) and whose values are
// random, with every fourth row repeating an earlier (Key, Val) pair.
func keyed(rng *rand.Rand, n int, key func(*rand.Rand) uint64) []Row {
	rows := make([]Row, n)
	for i := range rows {
		if i%4 == 3 {
			rows[i] = rows[rng.Intn(i)]
			continue
		}
		rows[i] = Row{Key: key(rng), Val: rng.Uint64()}
	}
	return rows
}

// The key shapes the kernels must survive. The workloads produce only
// the first; the rest reach digits, pass counts and buffers no executed
// run does.
var keyShapes = []struct {
	name   string
	passes int // radix passes on an input above radixSmall
	key    func(*rand.Rand) uint64
}{
	{"workload", 3, func(r *rand.Rand) uint64 { return r.Uint64() % keySpace }},
	{"full-width", 8, func(r *rand.Rand) uint64 { return r.Uint64() }},
	{"one-key", 0, func(*rand.Rand) uint64 { return 0xABCD }},
	{"top-byte", 1, func(r *rand.Rand) uint64 { return r.Uint64()<<56 | 0x1234 }},
	{"two-digits", 2, func(r *rand.Rand) uint64 { return r.Uint64() % (1 << 16) << 24 }},
	{"few-keys", 1, func(r *rand.Rand) uint64 { return r.Uint64() % 5 }},
}

// TestRadixByKey: a stable sort by key — equal keys keep their input
// order, which Val records — for every key shape, at sizes either side
// of the comparison-sort threshold and of an arena chunk, with the
// result where the pass count says it ends.
func TestRadixByKey(t *testing.T) {
	sizes := []int{0, 1, 2, radixSmall - 1, radixSmall, radixSmall + 1, 300, 5000,
		arenaChunkRows - 1, arenaChunkRows, arenaChunkRows + 1}
	for _, shape := range keyShapes {
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(int64(n)))
			rows := make([]Row, n)
			for i := range rows {
				rows[i] = Row{Key: shape.key(rng), Val: uint64(i)}
			}
			want := slices.Clone(rows)
			slices.SortStableFunc(want, func(a, b Row) int { return cmp.Compare(a.Key, b.Key) })

			tmp := make([]Row, n+3) // a scratch may be longer than the rows
			got := radixByKey(rows, tmp)
			if !slices.Equal(got, want) {
				t.Errorf("%s/%d: not the stable sort by key (first difference at row %d)", shape.name, n, firstDiff(got, want))
			}
			if n < radixSmall {
				continue
			}
			if inTmp := &got[0] == &tmp[0]; inTmp != (shape.passes%2 == 1) {
				t.Errorf("%s/%d: result in the scratch = %v after %d passes", shape.name, n, inTmp, shape.passes)
			}
		}
	}
}

// TestWideKernelsMatchReference: the sort, fold, dedup and join kernels
// against the map-and-comparison-sort code they replaced.
func TestWideKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i, shape := range keyShapes {
		sizes := []int{0, 1, radixSmall - 1, radixSmall, 700}
		if i < 2 {
			sizes = append(sizes, arenaChunkRows+5) // inputs and scratch on the heap
		}
		for _, n := range sizes {
			t.Run(fmt.Sprintf("%s/%d", shape.name, n), func(t *testing.T) {
				a := keyed(rng, n, shape.key)
				checkWideKernels(t, a, keyed(rng, n/2+1, shape.key))
				checkWideKernels(t, a, nil)
			})
		}
	}
	t.Run("wrapping-sums", func(t *testing.T) {
		a := make([]Row, 100)
		for i := range a {
			a[i] = Row{Key: uint64(i % 3), Val: ^uint64(0) - uint64(i)}
		}
		checkWideKernels(t, a, a[:50])
	})
	t.Run("disjoint-keys", func(t *testing.T) {
		a := keyed(rng, 200, func(r *rand.Rand) uint64 { return 2 * (r.Uint64() % 64) })
		b := keyed(rng, 200, func(r *rand.Rand) uint64 { return 2*(r.Uint64()%64) + 1 })
		checkWideKernels(t, a, b)
	})
	t.Run("one-side-runs-out-first", func(t *testing.T) {
		a := keyed(rng, 300, func(r *rand.Rand) uint64 { return r.Uint64() % 32 })
		b := keyed(rng, 300, func(r *rand.Rand) uint64 { return 16 + r.Uint64()%64 })
		checkWideKernels(t, a, b)
	})
}

// combiningOps are the operators whose map side folds, each with its
// reduce-side kernel over the two gathered sides (one-sided operators
// ignore the second).
var combiningOps = []struct {
	op     string
	reduce func(mem *arena, a, b []Row) []Row
}{
	{"reduceByKey", func(mem *arena, a, _ []Row) []Row { return reduceRows(mem, a) }},
	{"aggregateByKey", func(mem *arena, a, _ []Row) []Row { return reduceRows(mem, a) }},
	{"distinct", func(mem *arena, a, _ []Row) []Row { return distinctRows(mem, a) }},
	{"join", func(mem *arena, a, b []Row) []Row { return joinRows(mem, a, b, true) }},
	{"cogroup", func(mem *arena, a, b []Row) []Row { return joinRows(mem, a, b, false) }},
}

// checkMapSideCombine shuffles the sides a and b over maps map tasks,
// cut at random points (so some map partitions are empty or one row
// long), and reduceParts reducers, once with each map task's rows as
// they are and once folded by mapSideCombine first. Every combining
// operator's reduce side must give the same rows from both.
func checkMapSideCombine(t *testing.T, rng *rand.Rand, a, b []Row, maps, reduceParts int) {
	t.Helper()
	var mem arena
	own := func(rows []Row) []Row {
		out := mem.alloc(len(rows))
		copy(out, rows)
		return out
	}
	cuts := func(n int) []int {
		c := []int{0, n}
		for range maps - 1 {
			c = append(c, rng.Intn(n+1))
		}
		slices.Sort(c)
		return c
	}
	ca, cb := cuts(len(a)), cuts(len(b))
	outputs := func(side []Row, cuts []int, fold func(*arena, []Row) []Row) []mapOutput {
		outs := make([]mapOutput, maps)
		for m := range outs {
			rows := side[cuts[m]:cuts[m+1]]
			if fold != nil {
				rows = fold(&mem, own(rows))
			}
			outs[m] = newMapOutput(rows, reduceParts, make([]int32, len(rows)))
		}
		return outs
	}
	gather := func(outs []mapOutput, q int) []Row {
		var rows []Row
		for _, o := range outs {
			rows = append(rows, o.bucket(q)...)
		}
		return own(rows)
	}
	rawA, rawB := outputs(a, ca, nil), outputs(b, cb, nil)
	for _, c := range combiningOps {
		fold := mapSideCombine(c.op)
		if fold == nil {
			t.Fatalf("%s: no map-side combine", c.op)
		}
		foldA, foldB := outputs(a, ca, fold), outputs(b, cb, fold)
		for q := range reduceParts {
			want := c.reduce(&mem, gather(rawA, q), gather(rawB, q))
			if got := c.reduce(&mem, gather(foldA, q), gather(foldB, q)); !slices.Equal(got, want) {
				t.Errorf("%s of %d and %d rows over %d maps, reducer %d of %d: %d rows from folded buckets, want %d (first difference at %d)",
					c.op, len(a), len(b), maps, q, reduceParts, len(got), len(want), firstDiff(got, want))
			}
		}
	}
}

// TestMapSideCombineIsInvisible: folding each map task's rows before
// they are bucketed changes no reduce side's output — for hot-key skew,
// sums that wrap, and empty and one-row map partitions — and the
// operators that keep every row do not fold.
func TestMapSideCombineIsInvisible(t *testing.T) {
	for _, op := range []string{"groupByKey", "sortByKey", "partitionBy"} {
		if mapSideCombine(op) != nil {
			t.Errorf("%s folds on the map side; it must keep every row", op)
		}
	}
	rng := rand.New(rand.NewSource(1))
	hot := func(r *rand.Rand) uint64 {
		if r.Intn(3) == 0 {
			return r.Uint64() % keySpace
		}
		return r.Uint64() % hotKeys
	}
	for trial := range 200 {
		a, b := keyed(rng, rng.Intn(600), hot), keyed(rng, rng.Intn(300), hot)
		if trial%4 == 0 {
			for i := range a {
				a[i].Val = ^uint64(0) - uint64(i) // every pair of rows wraps
			}
		}
		checkMapSideCombine(t, rng, a, b, 1+rng.Intn(8), 1+rng.Intn(5))
	}
	for _, n := range []int{0, 1, 2} {
		checkMapSideCombine(t, rng, keyed(rng, n, hot), keyed(rng, n, hot), 4, 3)
	}
}

// FuzzWideKernels: any byte string, cut in two at any point, read as the
// two sides of a wide operator — every kernel matches its reference,
// folding the sides on the map side first changes no reduce side, and
// every digest lane matches the hash/fnv oracle.
func FuzzWideKernels(f *testing.F) {
	f.Add(EncodeRows(GenPartition(1, 0, 0, 200, 0.5)), uint16(120))
	f.Add([]byte{}, uint16(0))
	f.Add(EncodeRows([]Row{{1, ^uint64(0)}, {1, 2}, {1 << 63, 5}, {1, 2}}), uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		rows := decodeInto(make([]Row, len(data)/rowBytes), data) // a trailing partial row is dropped
		at := min(int(cut), len(rows))
		a, b := rows[:at], rows[at:]
		checkWideKernels(t, a, b)
		checkMapSideCombine(t, rand.New(rand.NewSource(int64(cut))), a, b, 1+int(cut)%6, 1+int(cut/6)%4)
		p := [lanes][]Row{a, b, b[:len(b)/2], a[len(a)/2:]}
		for l, h := range digestLanes(p) {
			if want := digestOracle(p[l]); h != want {
				t.Errorf("lane %d of %d (%d rows) digests %#x, want %#x", l, lanes, len(p[l]), h, want)
			}
		}
	})
}

// TestWideKernelsAllocateNothing: on a warm arena the fold takes its
// scratch and gives it back, and the lockstep digest has no hasher.
func TestWideKernelsAllocateNothing(t *testing.T) {
	src := GenPartition(1, 0, 0, 5000, 0)
	other := GenPartition(1, 0, 1, 4000, 0)
	var mem arena
	var out []Row
	reduce := func() {
		mem.reset()
		in := mem.alloc(len(src))
		copy(in, src)
		out = reduceRows(&mem, in)
	}
	reduce()
	if allocs := testing.AllocsPerRun(20, reduce); allocs != 0 {
		t.Errorf("reduceRows on a warm arena allocates %.0f objects", allocs)
	}
	if mem.off != len(src) {
		t.Errorf("reduceRows left the arena at row %d, want its scratch handed back (%d)", mem.off, len(src))
	}
	if !slices.Equal(out, refReduceRows(src)) {
		t.Error("reduceRows on a reused arena differs from the reference")
	}
	p := [lanes][]Row{src, other, other[:1000], src[:3000]}
	if allocs := testing.AllocsPerRun(20, func() { digestLanes(p) }); allocs != 0 {
		t.Errorf("digestLanes allocates %.0f objects", allocs)
	}
}
