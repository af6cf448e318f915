package metrics

import "testing"

// accumRuns is a fixed set of runs with deliberately awkward values:
// a negative-free spread of JCTs with min and max away from the ends,
// and zero-valued prefetch fields on some runs.
func accumRuns() []Run {
	return []Run{
		{JCT: 500, Hits: 10, Misses: 5, Evictions: 2, PrefetchIssued: 4, PrefetchUsed: 3, Recomputes: 1, DiskReadBytes: 100, NetReadBytes: 10, RecomputeBytes: 7},
		{JCT: 100, Hits: 3, Misses: 9, Evictions: 0, Recomputes: 4, DiskReadBytes: 50},
		{JCT: 900, Hits: 0, Misses: 0, Evictions: 11, PrefetchIssued: 2, NetReadBytes: 33},
		{JCT: 300, Hits: 7, Misses: 1, PrefetchIssued: 1, PrefetchUsed: 1, RecomputeBytes: 12},
		{JCT: 700, Hits: 2, Misses: 2, Evictions: 5, Recomputes: 2, DiskReadBytes: 8, NetReadBytes: 8, RecomputeBytes: 8},
	}
}

// TestAccumAddOrderIndependent pins the report's reduction contract:
// the rows folded in any order equal the sequential fold.
func TestAccumAddOrderIndependent(t *testing.T) {
	runs := accumRuns()
	var want, reversed, scrambled Accum
	for _, r := range runs {
		want.Add(r)
	}
	for i := len(runs) - 1; i >= 0; i-- {
		reversed.Add(runs[i])
	}
	for _, i := range []int{3, 0, 4, 1, 2} {
		scrambled.Add(runs[i])
	}
	if reversed != want || scrambled != want {
		t.Fatalf("order-dependent fold: reversed %+v scrambled %+v, want %+v", reversed, scrambled, want)
	}
}

func TestAccumMinMax(t *testing.T) {
	var a Accum
	for _, r := range accumRuns() {
		a.Add(r)
	}
	if a.MinJCT != 100 || a.MaxJCT != 900 {
		t.Fatalf("min/max = %d/%d, want 100/900", a.MinJCT, a.MaxJCT)
	}
	if a.N != 5 || a.SumJCT != 2500 {
		t.Fatalf("n/sum = %d/%d, want 5/2500", a.N, a.SumJCT)
	}
	if got := a.MeanJCT(); got != 500 {
		t.Fatalf("mean = %v, want 500", got)
	}
}

func TestAccumZeroIdentity(t *testing.T) {
	// The zero Accum is the fold's identity: the first Add sets min and
	// max from the run rather than comparing against zero.
	var a Accum
	a.Add(accumRuns()[0])
	if a.N != 1 || a.MinJCT != 500 || a.MaxJCT != 500 {
		t.Fatalf("first Add into a zero Accum = %+v, want n=1 min=max=500", a)
	}

	// Zero-value derived ratios must not divide by zero.
	var empty Accum
	if empty.MeanJCT() != 0 || empty.HitRatio() != 0 || empty.PrefetchAccuracy() != 0 {
		t.Fatal("empty accumulator ratios must be 0")
	}
}
