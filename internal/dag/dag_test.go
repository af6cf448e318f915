package dag

import (
	"testing"

	"mrdspark/internal/block"
)

func TestSourceDefaults(t *testing.T) {
	g := New()
	src := g.Source("in", 8, 1<<20)
	if src.ID != 0 {
		t.Errorf("first RDD ID = %d, want 0", src.ID)
	}
	if !src.IsSource() {
		t.Error("source RDD must report IsSource")
	}
	if src.NumPartitions != 8 || src.PartSize != 1<<20 {
		t.Errorf("source shape = (%d, %d)", src.NumPartitions, src.PartSize)
	}
	if src.Size() != 8<<20 {
		t.Errorf("Size() = %d, want %d", src.Size(), int64(8<<20))
	}
}

func TestNarrowTransformInheritance(t *testing.T) {
	g := New()
	src := g.Source("in", 8, 1<<20)
	m := src.Map("m")
	if m.NumPartitions != 8 {
		t.Errorf("map partitions = %d, want inherited 8", m.NumPartitions)
	}
	if m.PartSize != 1<<20 {
		t.Errorf("map part size = %d, want inherited %d", m.PartSize, 1<<20)
	}
	if len(m.Deps) != 1 || m.Deps[0].Parent != src || m.Deps[0].Type != Narrow {
		t.Errorf("map deps wrong: %+v", m.Deps)
	}
	if m.IsSource() {
		t.Error("derived RDD must not report IsSource")
	}
}

func TestTransformOptions(t *testing.T) {
	g := New()
	src := g.Source("in", 8, 1<<20)
	f := src.Filter("f", WithSizeFactor(0.25))
	if f.PartSize != 1<<18 {
		t.Errorf("filter part size = %d, want %d", f.PartSize, 1<<18)
	}
	r := src.ReduceByKey("r", WithPartitions(4), WithPartSize(100), WithCost(777))
	if r.NumPartitions != 4 || r.PartSize != 100 || r.CostPerPart != 777 {
		t.Errorf("options not applied: %+v", r)
	}
	if r.Deps[0].Type != Shuffle || r.Deps[0].ShuffleID == 0 {
		t.Errorf("reduceByKey must be a shuffle dep with nonzero ID: %+v", r.Deps[0])
	}
}

// TestOptSemantics: of several options setting one setting the last
// wins, an explicit zero applies (a zero size factor, a zero cost
// against the nonzero default; a zero partition count or part size
// means "inherit", as when unset), options setting different settings
// combine, and Source honours only WithCost.
func TestOptSemantics(t *testing.T) {
	// The parent: 8 partitions of 1 MiB, so the default cost is 16 µs.
	const parts, size, cost = 8, 1 << 20, (1 << 20) >> 16
	for _, c := range []struct {
		name       string
		opts       []Opt
		parts      int
		size, cost int64
	}{
		{"none", nil, parts, size, cost},
		{"partitions, last wins", []Opt{WithPartitions(3), WithPartitions(5)}, 5, size, cost},
		{"partitions, zero inherits", []Opt{WithPartitions(3), WithPartitions(0)}, parts, size, cost},
		{"size factor, last wins", []Opt{WithSizeFactor(0.5), WithSizeFactor(0.25)}, parts, size / 4, cost},
		{"size factor, zero applies", []Opt{WithSizeFactor(0.5), WithSizeFactor(0)}, parts, 0, cost},
		{"part size overrides the factor", []Opt{WithPartSize(100), WithSizeFactor(0.5)}, parts, 100, cost},
		{"part size, last wins", []Opt{WithPartSize(100), WithPartSize(300)}, parts, 300, cost},
		{"part size, zero falls back to the factor", []Opt{WithPartSize(100), WithSizeFactor(0.5), WithPartSize(0)}, parts, size / 2, cost},
		{"cost, last wins", []Opt{WithCost(7), WithCost(9)}, parts, size, 9},
		{"cost, zero applies", []Opt{WithCost(7), WithCost(0)}, parts, size, 0},
		{"all four", []Opt{WithCost(1), WithPartSize(2), WithSizeFactor(3), WithPartitions(4)}, 4, 2, 1},
	} {
		r := New().Source("in", parts, size).Map("m", c.opts...)
		if r.NumPartitions != c.parts || r.PartSize != c.size || r.CostPerPart != c.cost {
			t.Errorf("%s: (partitions, size, cost) = (%d, %d, %d), want (%d, %d, %d)",
				c.name, r.NumPartitions, r.PartSize, r.CostPerPart, c.parts, c.size, c.cost)
		}
	}
	for _, c := range []struct {
		name string
		opts []Opt
		cost int64
	}{
		{"none", nil, cost},
		{"only WithCost applies", []Opt{WithPartitions(3), WithPartSize(5), WithSizeFactor(2), WithCost(11)}, 11},
		{"others ignored", []Opt{WithPartitions(3), WithPartSize(5), WithSizeFactor(0)}, cost},
		{"zero cost applies", []Opt{WithCost(11), WithCost(0)}, 0},
	} {
		r := New().Source("in", parts, size, c.opts...)
		if r.NumPartitions != parts || r.PartSize != size || r.CostPerPart != c.cost {
			t.Errorf("Source, %s: (partitions, size, cost) = (%d, %d, %d), want (%d, %d, %d)",
				c.name, r.NumPartitions, r.PartSize, r.CostPerPart, parts, int64(size), c.cost)
		}
	}
}

func TestShuffleIDsAreUnique(t *testing.T) {
	g := New()
	src := g.Source("in", 8, 1<<20)
	seen := map[int]bool{}
	for _, r := range []*RDD{
		src.ReduceByKey("a"), src.GroupByKey("b"), src.SortByKey("c"),
		src.Distinct("d"), src.PartitionBy("e"), src.AggregateByKey("f"),
	} {
		id := r.Deps[0].ShuffleID
		if seen[id] {
			t.Errorf("shuffle ID %d reused", id)
		}
		seen[id] = true
	}
}

func TestJoinHasTwoShuffleDeps(t *testing.T) {
	g := New()
	a := g.Source("a", 4, 1<<20)
	b := g.Source("b", 4, 1<<20)
	j := a.Join("j", b)
	if len(j.Deps) != 2 {
		t.Fatalf("join deps = %d, want 2", len(j.Deps))
	}
	for i, d := range j.Deps {
		if d.Type != Shuffle {
			t.Errorf("join dep %d not shuffle", i)
		}
	}
	if j.Deps[0].ShuffleID == j.Deps[1].ShuffleID {
		t.Error("join sides must use distinct shuffles")
	}
	cg := a.CoGroup("cg", b)
	if len(cg.Deps) != 2 || cg.Deps[0].Type != Shuffle || cg.Deps[1].Type != Shuffle {
		t.Errorf("cogroup deps wrong: %+v", cg.Deps)
	}
}

func TestUnionCombinesPartitions(t *testing.T) {
	g := New()
	a := g.Source("a", 4, 1<<20)
	b := g.Source("b", 2, 2<<20)
	u := a.Union("u", b)
	if u.NumPartitions != 6 {
		t.Errorf("union partitions = %d, want 6", u.NumPartitions)
	}
	// Per-partition sizes round down, so the union's total may lose up
	// to one byte per partition.
	want := a.Size() + b.Size()
	if u.Size() > want || u.Size() < want-int64(u.NumPartitions) {
		t.Errorf("union size = %d, want ~%d", u.Size(), want)
	}
	if len(u.Deps) != 2 || u.Deps[0].Type != Narrow || u.Deps[1].Type != Narrow {
		t.Errorf("union deps wrong: %+v", u.Deps)
	}
}

func TestZipPartitionsIsNarrowMultiParent(t *testing.T) {
	g := New()
	a := g.Source("a", 4, 1<<20)
	b := a.Map("b")
	z := a.ZipPartitions("z", b)
	if len(z.Deps) != 2 {
		t.Fatalf("zip deps = %d", len(z.Deps))
	}
	for _, d := range z.Deps {
		if d.Type != Narrow {
			t.Error("zipPartitions must be narrow")
		}
	}
	if z.NumPartitions != 4 {
		t.Errorf("zip partitions = %d, want 4", z.NumPartitions)
	}
}

func TestCachePersistUnpersist(t *testing.T) {
	g := New()
	r := g.Source("a", 4, 1<<20).Map("m")
	if r.Cached {
		t.Fatal("fresh RDD must not be cached")
	}
	if r.Cache() != r {
		t.Error("Cache must return the receiver")
	}
	if !r.Cached || r.Level != block.MemoryOnly {
		t.Errorf("Cache() => cached=%v level=%v", r.Cached, r.Level)
	}
	r.Persist(block.MemoryAndDisk)
	if r.Level != block.MemoryAndDisk {
		t.Errorf("Persist level = %v", r.Level)
	}
	r.Unpersist()
	if r.Cached {
		t.Error("Unpersist must clear the cached flag")
	}
}

func TestCachedRDDsOrder(t *testing.T) {
	g := New()
	a := g.Source("a", 2, 1).Map("m1").Cache()
	b := a.Map("m2")
	c := b.Map("m3").Cache()
	got := g.CachedRDDs()
	if len(got) != 2 || got[0] != a || got[1] != c {
		t.Errorf("CachedRDDs = %v", got)
	}
}

func TestBlockIdentity(t *testing.T) {
	g := New()
	r := g.Source("a", 4, 99).Map("m").Persist(block.MemoryAndDisk)
	id := r.Block(3)
	if id.RDD != r.ID || id.Partition != 3 {
		t.Errorf("Block(3) = %v", id)
	}
	info := r.BlockInfo(3)
	if info.ID != id || info.Size != 99 || info.Level != block.MemoryAndDisk {
		t.Errorf("BlockInfo = %+v", info)
	}
}

func TestDefaultCostScalesWithInput(t *testing.T) {
	g := New()
	small := g.Source("s", 1, 1<<16)
	big := g.Source("b", 1, 1<<26)
	if small.Map("m").CostPerPart >= big.Map("m").CostPerPart {
		t.Error("default compute cost must grow with input partition size")
	}
}
