package metrics

// Accum is an order-independent aggregate over Runs — what the sweep
// report folds the row table into, one Add per row. Every field is an
// exact integer sum (or min/max), so Add is commutative and associative
// bit-for-bit: the rows may be folded in any order and the result is
// identical to one sequential pass. Derived ratios (means, hit rate)
// are computed only at render time, from the integers.
type Accum struct {
	N int64

	SumJCT int64
	MinJCT int64
	MaxJCT int64

	Hits           int64
	Misses         int64
	Evictions      int64
	PrefetchIssued int64
	PrefetchUsed   int64
	Recomputes     int64

	DiskReadBytes  int64
	NetReadBytes   int64
	RecomputeBytes int64
}

// Add folds one run into the accumulator.
func (a *Accum) Add(r Run) {
	if a.N == 0 || r.JCT < a.MinJCT {
		a.MinJCT = r.JCT
	}
	if a.N == 0 || r.JCT > a.MaxJCT {
		a.MaxJCT = r.JCT
	}
	a.N++
	a.SumJCT += r.JCT
	a.Hits += r.Hits
	a.Misses += r.Misses
	a.Evictions += r.Evictions
	a.PrefetchIssued += r.PrefetchIssued
	a.PrefetchUsed += r.PrefetchUsed
	a.Recomputes += r.Recomputes
	a.DiskReadBytes += r.DiskReadBytes
	a.NetReadBytes += r.NetReadBytes
	a.RecomputeBytes += r.RecomputeBytes
}

// MeanJCT returns the mean job completion time in simulated
// microseconds, or 0 for an empty accumulator.
func (a Accum) MeanJCT() float64 {
	if a.N == 0 {
		return 0
	}
	return float64(a.SumJCT) / float64(a.N)
}

// HitRatio returns the pooled cache hit ratio (total hits over total
// cached-block reads), or 0 with no reads.
func (a Accum) HitRatio() float64 {
	total := a.Hits + a.Misses
	if total == 0 {
		return 0
	}
	return float64(a.Hits) / float64(total)
}

// PrefetchAccuracy returns the pooled used/issued prefetch ratio, or 0
// when nothing was prefetched.
func (a Accum) PrefetchAccuracy() float64 {
	if a.PrefetchIssued == 0 {
		return 0
	}
	return float64(a.PrefetchUsed) / float64(a.PrefetchIssued)
}
