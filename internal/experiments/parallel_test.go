package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrdspark/internal/cluster"
	"mrdspark/internal/workload"
)

func TestForEachPanicAttachesIndex(t *testing.T) {
	for _, n := range []int{1, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected forEach to re-raise the worker panic")
				}
				s := fmt.Sprint(r)
				if !strings.Contains(s, fmt.Sprintf("fn(%d)", n-1)) || !strings.Contains(s, "boom") {
					t.Fatalf("panic %q does not name the failing index", s)
				}
			}()
			forEach(n, func(i int) {
				if i == n-1 {
					panic("boom")
				}
			})
		})
	}
}

// TestForEachReportsLowestFailingIndex pins the determinism half of
// the fail-fast contract: when several indices panic, the re-raised
// panic names the lowest one, regardless of which failure completed
// first. Index 9 panics immediately; index 1 panics only after a
// sleep, so "first panic wins" (the old behaviour) would name 9 on
// essentially every run.
func TestForEachReportsLowestFailingIndex(t *testing.T) {
	for name, workers := range map[string]int{"sequential": 1, "parallel": 4} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected forEach to re-raise the worker panic")
				}
				s := fmt.Sprint(r)
				if !strings.Contains(s, "fn(1) panicked") {
					t.Fatalf("panic %q does not name the lowest failing index 1", s)
				}
			}()
			forEachWorkers(workers, 16, func(i int) {
				switch i {
				case 1:
					time.Sleep(30 * time.Millisecond)
					panic("slow low failure")
				case 9:
					panic("fast high failure")
				default:
					time.Sleep(5 * time.Millisecond)
				}
			})
		})
	}
}

// TestForEachStopsFeedingAfterFailure pins the fail-fast half: after a
// panic, no further indices are dispatched on either path. The old
// parallel path kept feeding all remaining indices even though the
// sweep was already doomed.
func TestForEachStopsFeedingAfterFailure(t *testing.T) {
	for name, workers := range map[string]int{"sequential": 1, "parallel": 4} {
		t.Run(name, func(t *testing.T) {
			const n = 256
			var calls atomic.Int64
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("expected forEach to re-raise the worker panic")
					}
				}()
				forEachWorkers(workers, n, func(i int) {
					calls.Add(1)
					if i == 0 {
						panic("boom")
					}
					// Give the feeder time to observe the failure before the
					// workers could drain the whole range.
					time.Sleep(2 * time.Millisecond)
				})
			}()
			if got := calls.Load(); got > n/2 {
				t.Fatalf("dispatched %d of %d indices after the failure; feeding did not stop", got, n)
			}
		})
	}
}

func TestRunCacheMemoizes(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()

	spec, err := workload.Build("KM", workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Main().WithCache(64 << 20)

	a := scenario{spec, cfg}.under(SpecLRU)
	if n := RunCacheLen(); n != 1 {
		t.Fatalf("after first run: %d cache entries, want 1", n)
	}
	b := scenario{spec, cfg}.under(SpecLRU)
	if a != b {
		t.Fatalf("cached replay differs from original run:\n a=%+v\n b=%+v", a, b)
	}
	if n := RunCacheLen(); n != 1 {
		t.Fatalf("repeat run grew the cache to %d entries", n)
	}

	// Distinct generation params, policies, and cluster configs must
	// key separately even for the same workload name.
	seeded, err := workload.Build("KM", workload.Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	scenario{seeded, cfg}.under(SpecLRU)
	scenario{spec, cfg}.under(SpecMRD)
	scenario{spec, cfg.WithCache(32 << 20)}.under(SpecLRU)
	if n := RunCacheLen(); n != 4 {
		t.Fatalf("distinct configurations share entries: %d, want 4", n)
	}
}

// TestRunCachedSingleflight pins the concurrent-miss gate: N callers
// racing on one cold key must produce exactly one simulation, with
// everyone receiving the identical run. Before the gate, each racer
// simulated the full run and last-store won.
func TestRunCachedSingleflight(t *testing.T) {
	ResetRunCache()
	ResetCacheStats()
	defer ResetRunCache()
	defer ResetCacheStats()

	spec, err := workload.Build("KM", workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Main().WithCache(64 << 20)

	// Widen the race window: every real simulation stalls long enough
	// for all racers to reach the miss path.
	simHook = func() { time.Sleep(50 * time.Millisecond) }
	defer func() { simHook = nil }()

	const racers = 16
	var wg sync.WaitGroup
	results := make([]string, racers)
	for k := 0; k < racers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			run, err := RunCached(spec, cfg, SpecLRU)
			if err != nil {
				results[k] = "error: " + err.Error()
				return
			}
			results[k] = run.String()
		}(k)
	}
	wg.Wait()

	for k := 1; k < racers; k++ {
		if results[k] != results[0] {
			t.Fatalf("racer %d saw a different run:\n %s\n vs\n %s", k, results[k], results[0])
		}
	}
	stats := ReadCacheStats()
	if stats.Simulated != 1 {
		t.Fatalf("concurrent misses on one key simulated %d times, want exactly 1 (stats: %s)",
			stats.Simulated, stats)
	}
	if got := stats.Simulated + stats.MemoHits + stats.Waits; got != racers {
		t.Fatalf("stats do not account for all %d racers: %s", racers, stats)
	}
	if n := RunCacheLen(); n != 1 {
		t.Fatalf("cache holds %d entries after singleflight fill, want 1", n)
	}
}
