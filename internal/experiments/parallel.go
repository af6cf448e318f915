package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// forEach runs fn(i) for i in [0, n) on up to GOMAXPROCS workers.
// Simulations are independent and deterministic, so experiments that
// sweep workloads or cache sizes parallelize without changing results;
// fn must only write to its own index's slot.
func forEach(n int, fn func(i int)) {
	forEachWorkers(0, n, fn)
}

// forEachWorkers is forEach with an explicit worker count (<= 0 means
// GOMAXPROCS). RunSweep passes its workers argument through here; the
// determinism differential proves the count cannot change results.
//
// A panic inside fn is recovered in the worker and re-raised from the
// caller with the failing index attached. Without this, a worker panic
// killed the process from a bare goroutine with no hint of which sweep
// entry failed — and left the caller's deferred cleanup unrun.
//
// Failure handling is fail-fast and deterministic on both paths: once
// any fn has panicked, no further index is dispatched (the sequential
// path breaks, the feeder stops), but work already handed to a worker
// still completes. The re-raised panic names the lowest failing index.
// That combination makes the report reproducible: indices are fed in
// increasing order, so the lowest failing index overall has always
// been dispatched before any later failure could stop the feed, and
// taking the minimum over every completed failure always finds it —
// unlike the old "first panic wins", which raced goroutines against
// each other and named a different index run to run.
func forEachWorkers(workers, n int, fn func(i int)) {
	var (
		mu      sync.Mutex
		failIdx = -1
		failVal any
		failed  atomic.Bool
	)
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if failIdx < 0 || i < failIdx {
					failIdx, failVal = i, r
				}
				mu.Unlock()
				failed.Store(true)
			}
		}()
		fn(i)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && !failed.Load(); i++ {
			call(i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					call(i)
				}
			}()
		}
		for i := 0; i < n && !failed.Load(); i++ {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	if failIdx >= 0 {
		panic(fmt.Sprintf("experiments: forEach(%d): fn(%d) panicked: %v", n, failIdx, failVal))
	}
}
