package refdist

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randomProfile builds a structurally valid profile from a seed:
// creations precede reads, reads are stage-sorted and job-monotone.
func randomProfile(rng *rand.Rand) *Profile {
	p := NewProfile()
	nRDDs := 1 + rng.Intn(8)
	for id := 0; id < nRDDs; id++ {
		cStage := rng.Intn(10)
		p.creation[id] = Ref{Stage: cStage, Job: cStage / 2}
		n := rng.Intn(6)
		stages := map[int]bool{}
		for len(stages) < n {
			stages[cStage+1+rng.Intn(30)] = true
		}
		var reads []Ref
		for st := range stages {
			reads = append(reads, Ref{Stage: st, Job: st / 2})
		}
		sort.Slice(reads, func(a, b int) bool { return reads[a].Stage < reads[b].Stage })
		if len(reads) > 0 {
			p.reads[id] = reads
		}
	}
	return p
}

// TestQuickDistanceLaws checks the distance algebra on random
// profiles:
//   - StageDistance(id, s) is non-increasing by exactly the advance
//     while no reference is crossed;
//   - the consumed variant never reports a smaller next-reference
//     stage than the inclusive one;
//   - distances are non-negative or infinite.
func TestQuickDistanceLaws(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProfile(rng)
		for _, id := range p.RDDs() {
			for s := 0; s < 45; s++ {
				d := p.StageDistance(id, s)
				dc := p.StageDistanceConsumed(id, s)
				if !IsInfinite(d) && d < 0 {
					return false
				}
				if !IsInfinite(dc) && dc < 1 {
					return false // consumed distance is always to a later stage
				}
				if IsInfinite(d) && !IsInfinite(dc) {
					return false // consuming can only lose references
				}
				if !IsInfinite(d) && !IsInfinite(dc) && dc < d {
					return false
				}
				// Advance one stage: the same next reference (if not
				// crossed) is now exactly one closer.
				if !IsInfinite(d) && d >= 1 {
					d2 := p.StageDistance(id, s+1)
					if IsInfinite(d2) || d2 != d-1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickNextReadIsFirstAtOrAfter: NextRead returns precisely the
// earliest read at or after the cursor.
func TestQuickNextReadIsFirstAtOrAfter(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProfile(rng)
		for _, id := range p.RDDs() {
			reads := p.Reads(id)
			for s := 0; s < 45; s++ {
				got, ok := p.NextRead(id, s)
				var want *Ref
				for i := range reads {
					if reads[i].Stage >= s {
						want = &reads[i]
						break
					}
				}
				if (want == nil) != !ok {
					return false
				}
				if want != nil && got != *want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickStatsNonNegative: distance statistics are never negative
// and maxima bound the averages.
func TestQuickStatsNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		p := randomProfile(rand.New(rand.NewSource(seed)))
		st := p.Stats()
		if st.AvgStageDistance < 0 || st.AvgJobDistance < 0 {
			return false
		}
		if st.AvgStageDistance > float64(st.MaxStageDistance) {
			return false
		}
		if st.EventAvgStageDistance > float64(st.MaxStageDistance) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
