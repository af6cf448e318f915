package mrdspark

import (
	"fmt"

	"mrdspark/internal/cluster"
	"mrdspark/internal/experiments"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/workload"
)

// CacheNeeded finds, by bisection, the smallest per-node cache size at
// which the configured policy reaches the target hit ratio on the
// workload — the capacity-planning use the paper's §5.6 motivates
// ("MRD requires only 0.33 GB [against LRU's 0.88 GB], the equivalent
// of 63% savings in cache space... this is significant as it leads to
// resource and cost savings").
//
// Probes run through the experiment suite's memoized run cache, so a
// repeated plan (or one sharing probe sizes with an experiment sweep)
// replays from cache instead of re-simulating, and the workload is
// generated once per plan rather than once per probe.
//
// It returns the found per-node size and the run at that size. If even
// a cache big enough to hold everything misses the target (some
// workloads' first-touch misses bound the hit ratio), it returns an
// error carrying the best achievable ratio.
func CacheNeeded(cfg Config, targetHit float64) (int64, Result, error) {
	if targetHit <= 0 || targetHit > 1 {
		return 0, Result{}, fmt.Errorf("mrdspark: target hit ratio %v outside (0, 1]", targetHit)
	}
	if cfg.Workload == "" {
		return 0, Result{}, fmt.Errorf("mrdspark: Config.Workload is empty (choose from %v)", Workloads())
	}
	cl := cfg.Cluster
	if cl.Nodes == 0 {
		cl = cluster.Main()
	}
	pspec, err := policyspec.Parse(cfg.Policy, cfg.MRD, cfg.AdHoc)
	if err != nil {
		return 0, Result{}, fmt.Errorf("mrdspark: %w", err)
	}
	spec, err := workload.Build(cfg.Workload, cfg.Params)
	if err != nil {
		return 0, Result{}, err
	}

	runAt := func(perNode int64) (Result, error) {
		return experiments.RunCached(spec, cl.WithCache(perNode), pspec)
	}

	// Establish the bracket: lo = one largest block (the smallest
	// usable store), hi = enough for the whole cached working set.
	var maxBlock, totalCached int64
	for _, r := range spec.Graph.CachedRDDs() {
		if r.PartSize > maxBlock {
			maxBlock = r.PartSize
		}
		totalCached += r.Size()
	}
	if maxBlock == 0 {
		return 0, Result{}, fmt.Errorf("mrdspark: workload %q caches nothing", cfg.Workload)
	}
	lo := maxBlock
	hi := totalCached/int64(cl.Nodes) + 2*maxBlock

	top, err := runAt(hi)
	if err != nil {
		return 0, Result{}, err
	}
	if top.HitRatio() < targetHit {
		return 0, top, fmt.Errorf("mrdspark: target hit %.2f unreachable; best achievable is %.2f (first-touch misses)",
			targetHit, top.HitRatio())
	}
	// Probe the lower endpoint too: bisection shrinks the bracket
	// towards lo but never evaluates it, and when the smallest usable
	// store already satisfies the target it is the answer.
	if bottom, err := runAt(lo); err != nil {
		return 0, Result{}, err
	} else if bottom.HitRatio() >= targetHit {
		return lo, bottom, nil
	}
	best := hi
	bestRun := top
	// Bisect to ~2% resolution. Hit ratio is not perfectly monotone in
	// cache size, so keep the smallest size seen to satisfy the target
	// rather than trusting the final bracket blindly.
	for i := 0; i < 24 && hi-lo > maxBlock/8+1; i++ {
		mid := lo + (hi-lo)/2
		run, err := runAt(mid)
		if err != nil {
			return 0, Result{}, err
		}
		if run.HitRatio() >= targetHit {
			hi = mid
			if mid < best {
				best, bestRun = mid, run
			}
		} else {
			lo = mid
		}
	}
	return best, bestRun, nil
}
