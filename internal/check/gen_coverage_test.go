package check

import (
	"testing"

	"mrdspark/internal/obs"
	"mrdspark/internal/policyspec"
)

// TestGeneratorCoverage guards the sweep's power: a differential suite
// over workloads that never evict, never miss, never prefetch and
// never mix hits with misses in one stage frontier would pass
// vacuously. These floors are what made the harness able to catch the
// advisor's one-phase read-resolution bug in mutation testing; keep
// them honest when tuning the generator.
func TestGeneratorCoverage(t *testing.T) {
	var evictions, misses, prefetches int64
	mixedStages := 0
	for seed := int64(1); seed <= diffSeeds; seed++ {
		w := Generate(GenConfig{Seed: seed})
		lru, err := runSimLeg(w, policyspec.Spec{Kind: "LRU"})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		evictions += lru.run.Evictions
		misses += lru.run.Misses
		mrd, err := runSimLeg(w, policyspec.Spec{Kind: "MRD"})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prefetches += mrd.run.PrefetchIssued

		type tally struct{ hits, misses, rdds int }
		stages := map[int]*tally{}
		rdds := map[int]map[int]bool{}
		for _, ev := range lru.events {
			if ev.Kind != obs.KindHit && ev.Kind != obs.KindMiss {
				continue
			}
			if stages[ev.Stage] == nil {
				stages[ev.Stage] = &tally{}
				rdds[ev.Stage] = map[int]bool{}
			}
			rdds[ev.Stage][ev.Block.RDD] = true
			if ev.Kind == obs.KindHit {
				stages[ev.Stage].hits++
			} else {
				stages[ev.Stage].misses++
			}
		}
		for s, c := range stages {
			if len(rdds[s]) >= 2 && c.hits > 0 && c.misses > 0 {
				mixedStages++
			}
		}
	}
	if evictions == 0 {
		t.Errorf("no LRU evictions across %d seeds: no cache pressure", diffSeeds)
	}
	if misses == 0 {
		t.Errorf("no LRU misses across %d seeds: no re-read distance", diffSeeds)
	}
	if prefetches == 0 {
		t.Errorf("no MRD prefetches across %d seeds: class B paths unexercised", diffSeeds)
	}
	if mixedStages == 0 {
		t.Errorf("no multi-RDD stage frontier mixing hits and misses across %d seeds: read-resolution order untested", diffSeeds)
	}
}
