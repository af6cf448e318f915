package block

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestIDString(t *testing.T) {
	tests := []struct {
		id   ID
		want string
	}{
		{ID{RDD: 0, Partition: 0}, "rdd_0_0"},
		{ID{RDD: 7, Partition: 12}, "rdd_7_12"},
		{ID{RDD: 103, Partition: 5}, "rdd_103_5"},
	}
	for _, tt := range tests {
		if got := tt.id.String(); got != tt.want {
			t.Errorf("%#v.String() = %q, want %q", tt.id, got, tt.want)
		}
	}
}

func TestIDLess(t *testing.T) {
	tests := []struct {
		a, b ID
		want bool
	}{
		{ID{1, 0}, ID{2, 0}, true},
		{ID{2, 0}, ID{1, 0}, false},
		{ID{1, 3}, ID{1, 4}, true},
		{ID{1, 4}, ID{1, 3}, false},
		{ID{1, 3}, ID{1, 3}, false},
		{ID{1, 9}, ID{2, 0}, true},
	}
	for _, tt := range tests {
		if got := tt.a.Less(tt.b); got != tt.want {
			t.Errorf("%v.Less(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestIDLessIsStrictWeakOrdering(t *testing.T) {
	// Irreflexive and asymmetric over random pairs; total over
	// distinct IDs.
	f := func(a, b ID) bool {
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		return a.Less(b) != b.Less(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIDSortOrder(t *testing.T) {
	ids := []ID{{3, 1}, {0, 5}, {3, 0}, {0, 0}, {1, 2}}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	want := []ID{{0, 0}, {0, 5}, {1, 2}, {3, 0}, {3, 1}}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v (full: %v)", i, ids[i], want[i], ids)
		}
	}
}

func TestStorageLevelString(t *testing.T) {
	if got := MemoryOnly.String(); got != "MEMORY_ONLY" {
		t.Errorf("MemoryOnly.String() = %q", got)
	}
	if got := MemoryAndDisk.String(); got != "MEMORY_AND_DISK" {
		t.Errorf("MemoryAndDisk.String() = %q", got)
	}
	if got := StorageLevel(42).String(); got != "StorageLevel(42)" {
		t.Errorf("unknown level String() = %q", got)
	}
}

func TestInfoCarriesIdentity(t *testing.T) {
	info := Info{ID: ID{RDD: 4, Partition: 2}, Size: 1 << 20, Level: MemoryAndDisk}
	if info.ID.RDD != 4 || info.ID.Partition != 2 || info.Size != 1<<20 || info.Level != MemoryAndDisk {
		t.Errorf("Info fields corrupted: %+v", info)
	}
}

// TestParseIDStrict: a name is rdd_<digits>_<digits> and nothing else.
// Sscanf, which ParseID used to be, stopped at the first match — it took
// "rdd_1_2junk" for {1,2} and "rdd_-1_+2" for {-1,2} — and such names
// reach ParseID from trace files and the wire.
func TestParseIDStrict(t *testing.T) {
	accepted := []struct {
		name string
		want ID
	}{
		{"rdd_0_0", ID{0, 0}},
		{"rdd_7_12", ID{7, 12}},
		{"rdd_007_1", ID{7, 1}}, // digits only: leading zeros are digits
		{"rdd_2147483647_2147483647", ID{math.MaxInt32, math.MaxInt32}},
		{"rdd_0000000001_0000000002", ID{1, 2}},
	}
	for _, tt := range accepted {
		got, err := ParseID(tt.name)
		if err != nil || got != tt.want {
			t.Errorf("ParseID(%q) = %v, %v; want %v", tt.name, got, err, tt.want)
		}
		if id, ok := ParseName([]byte(tt.name)); !ok || id != tt.want {
			t.Errorf("ParseName([]byte(%q)) = %v, %v; want %v", tt.name, id, ok, tt.want)
		}
	}
	rejected := []string{
		"", "rdd_", "rdd_1", "rdd_1_", "rdd__1", "rdd_1__2", "r4p0", "RDD_1_2",
		"rdd_1_2junk", "rdd_1_2 ", " rdd_1_2", "rdd_1_2\n", "rdd_1x_2", "xrdd_1_2",
		"rdd_-1_2", "rdd_1_-2", "rdd_+1_2", "rdd_-1_+2", "rdd_1_2_3", "rdd_1.0_2", "rdd_0x1_2",
		"rdd_2147483648_0", "rdd_0_2147483648", "rdd_00000000001_0", "rdd_0_00000000001",
		"rdd_1_" + strings.Repeat("9", 40), "rdd_١_٢",
	}
	for _, name := range rejected {
		if id, err := ParseID(name); err == nil {
			t.Errorf("ParseID(%q) = %v, nil; want an error", name, id)
		}
		if id, ok := ParseName([]byte(name)); ok {
			t.Errorf("ParseName([]byte(%q)) = %v, true; want false", name, id)
		}
	}
}

// TestNameAllocations: rendering into a buffer and parsing allocate
// nothing — what lets the advice codec carry names without a string per
// decision on either side.
func TestNameAllocations(t *testing.T) {
	id := ID{RDD: 140, Partition: 37}
	buf := make([]byte, 0, MaxNameLen)
	if n := testing.AllocsPerRun(100, func() {
		name := id.AppendName(buf[:0])
		if got, ok := ParseName(name); !ok || got != id {
			t.Fatalf("ParseName(%q) = %v, %v", name, got, ok)
		}
	}); n != 0 {
		t.Errorf("AppendName+ParseName allocate %v objects; want 0", n)
	}
}

// FuzzBlockName: String and ParseID are inverses on every ID a name can
// carry, and ParseID accepts no name it cannot put back — whatever it
// accepts re-renders to a name that parses to the same ID.
func FuzzBlockName(f *testing.F) {
	for _, name := range []string{"rdd_0_0", "rdd_7_12", "rdd_007_1", "rdd_1_2junk", "rdd_-1_+2",
		"r4p0", "rdd_2147483647_2147483647", "rdd_2147483648_0", "rdd_1_" + strings.Repeat("9", 40)} {
		f.Add(name, uint32(7), uint32(12))
	}
	f.Fuzz(func(t *testing.T, name string, rdd, part uint32) {
		id := ID{RDD: int(rdd & math.MaxInt32), Partition: int(part & math.MaxInt32)}
		if back, err := ParseID(id.String()); err != nil || back != id {
			t.Fatalf("ParseID(%q) = %v, %v; want %v", id.String(), back, err, id)
		}
		got, err := ParseID(name)
		if fromBytes, ok := ParseName([]byte(name)); ok != (err == nil) || fromBytes != got {
			t.Fatalf("ParseName([]byte(%q)) = %v, %v but ParseID gives %v, %v", name, fromBytes, ok, got, err)
		}
		if err != nil {
			return
		}
		if got.RDD < 0 || got.Partition < 0 || len(name) > MaxNameLen {
			t.Fatalf("ParseID(%q) accepted %v", name, got)
		}
		if again, err := ParseID(got.String()); err != nil || again != got {
			t.Fatalf("ParseID(%q) = %v, which renders as %q and parses back as %v, %v", name, got, got.String(), again, err)
		}
	})
}
