// Package metrics defines the measurements a simulated run produces —
// job completion time, cache hit ratio, I/O volumes, eviction and
// prefetch counters — and helpers to aggregate and normalize them the
// way the paper's evaluation reports results.
package metrics

import (
	"fmt"
	"math"
	"time"
)

// Run holds the counters of one simulated application run. The fields
// marked (stream) count one kind of event each: obs.Tally.FillRun sets
// them from the run's event tally, and nothing else writes them. Every
// other field is the host's, written where the simulator charges it.
type Run struct {
	Workload string
	Policy   string

	// JCT is the job completion time of the whole application in
	// simulated microseconds (the paper's normalized-JCT numerator).
	JCT int64

	// Cache accounting, counted on cached-RDD block reads only (stream).
	Hits   int64
	Misses int64

	// Miss breakdown (stream): disk promotes read the block back from
	// local disk; recomputes rebuild it from lineage.
	DiskPromotes int64
	Recomputes   int64

	// I/O volumes in bytes.
	DiskReadBytes  int64
	DiskWriteBytes int64
	NetReadBytes   int64

	// Spark-UI-style volumes (Table 3's columns): total bytes entering
	// stages, and shuffle read/write totals.
	StageInputBytes   int64
	ShuffleReadBytes  int64
	ShuffleWriteBytes int64

	// Cache churn. The first three are (stream); used and wasted come
	// from the stores' prefetch ledger.
	Evictions      int64 // demand evictions under memory pressure
	PurgedBlocks   int64 // blocks dropped by cluster-wide purge orders
	PrefetchIssued int64
	PrefetchUsed   int64 // prefetched blocks that were hit before eviction
	PrefetchWasted int64 // prefetched blocks evicted or purged unused

	// PeakCacheUsed is the high-water mark of cluster-wide memory
	// store occupancy, the natural scale for cache-size sweeps.
	PeakCacheUsed int64

	// Fault injection and recovery (internal/fault), (stream) down to
	// FetchGiveUps. All zero on a healthy, unreplicated run.
	NodeCrashes     int64 // node-crash events fired
	NodeRejoins     int64 // crashed nodes that rejoined (empty)
	StragglerEvents int64 // straggler windows opened
	BlocksLost      int64 // fault-injected single-block losses
	BlocksCorrupted int64 // corrupt on-disk copies detected at read
	// Replication: bytes written for replica copies (the replica-write
	// events' byte sum), and misses served by re-fetching a surviving
	// replica instead of recomputing.
	ReplicaWriteBytes int64
	ReplicaHits       int64
	// Remote-fetch retry model: transient failures retried with
	// backoff, and fetches abandoned after the retry budget. An
	// abandoned fetch drops a miss to its next rung; a hit or a shuffle
	// read whose fetch gives up is rebuilt from lineage, charged to
	// RecomputeBytes but not counted among the Recomputes, which are
	// the outcomes of misses.
	FetchRetries int64
	FetchGiveUps int64
	// RecomputeBytes is the total block bytes rebuilt from lineage —
	// the recovery work a fault schedule forces onto the run.
	RecomputeBytes int64
	// FaultWarning records schedule anomalies — today, events whose
	// stage index lies beyond the executed stage count and therefore
	// never fired. Empty on a clean replay. A string (not a slice)
	// keeps Run comparable with ==.
	FaultWarning string

	// Device utilization: total busy microseconds summed across every
	// node's disk and NIC, over the run's full wall time (WallTime ≥
	// JCT: background write-behind and prefetch I/O may still drain
	// after the last job completes).
	DiskBusy int64
	NetBusy  int64
	WallTime int64

	// Workflow shape. StagesExecuted and TasksExecuted are (stream).
	Jobs           int
	StagesExecuted int
	StagesSkipped  int
	TasksExecuted  int64
}

// HitRatio returns hits / (hits + misses), or 0 for a run with no
// cached-block reads.
func (r Run) HitRatio() float64 {
	total := r.Hits + r.Misses
	if total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(total)
}

// JCTDuration returns the job completion time as a time.Duration.
func (r Run) JCTDuration() time.Duration { return time.Duration(r.JCT) * time.Microsecond }

// PrefetchAccuracy returns the fraction of issued prefetches that were
// used before being evicted.
func (r Run) PrefetchAccuracy() float64 {
	if r.PrefetchIssued == 0 {
		return 0
	}
	return float64(r.PrefetchUsed) / float64(r.PrefetchIssued)
}

// String renders a one-line summary.
func (r Run) String() string {
	return fmt.Sprintf("%s/%s: JCT=%v hit=%.1f%% (hits=%d misses=%d) evict=%d prefetch=%d/%d",
		r.Workload, r.Policy, r.JCTDuration(), 100*r.HitRatio(),
		r.Hits, r.Misses, r.Evictions, r.PrefetchUsed, r.PrefetchIssued)
}

// StageSpan is one executed stage's slice of the run timeline. Spans
// are kept out of Run so Run stays comparable; the simulator returns
// them separately.
type StageSpan struct {
	StageID int
	JobID   int
	Kind    string // "shuffleMap" or "result"
	Tasks   int
	Start   int64 // µs
	End     int64 // µs
}

// Duration returns the span length as a time.Duration.
func (s StageSpan) Duration() time.Duration {
	return time.Duration(s.End-s.Start) * time.Microsecond
}

// Normalized compares a run to a baseline run of the same workload:
// values below 1 mean the run beat the baseline.
type Normalized struct {
	JCT      float64 // run JCT / baseline JCT
	HitRatio float64 // absolute hit-ratio difference (run - baseline)
}

// Normalize computes run-vs-baseline comparison values.
func Normalize(run, baseline Run) Normalized {
	n := Normalized{JCT: 1, HitRatio: run.HitRatio() - baseline.HitRatio()}
	if baseline.JCT > 0 {
		n.JCT = float64(run.JCT) / float64(baseline.JCT)
	}
	return n
}

// Summary aggregates repeated runs of the same configuration.
type Summary struct {
	N           int
	MeanJCT     float64
	MinJCT      int64
	MaxJCT      int64
	MeanHit     float64
	MeanEvicted float64
	// StdDevJCT is the population standard deviation of the JCTs —
	// min/max alone hide how tightly the seeds cluster.
	StdDevJCT float64
	// MeanPrefetchAcc averages each run's prefetch accuracy (used /
	// issued) over the runs that issued prefetches; zero when none did.
	// Runs without prefetches say nothing about accuracy — folding
	// them in as zeros deflated the mean for policies that prefetch
	// only under some seeds.
	MeanPrefetchAcc float64
}

// Aggregate summarizes a set of runs. It panics on an empty slice:
// aggregating nothing is a caller bug.
func Aggregate(runs []Run) Summary {
	if len(runs) == 0 {
		panic("metrics: Aggregate of zero runs")
	}
	s := Summary{N: len(runs), MinJCT: runs[0].JCT, MaxJCT: runs[0].JCT}
	var jct, hit, ev, acc float64
	prefetchers := 0
	for _, r := range runs {
		jct += float64(r.JCT)
		hit += r.HitRatio()
		ev += float64(r.Evictions)
		if r.PrefetchIssued > 0 {
			acc += r.PrefetchAccuracy()
			prefetchers++
		}
		if r.JCT < s.MinJCT {
			s.MinJCT = r.JCT
		}
		if r.JCT > s.MaxJCT {
			s.MaxJCT = r.JCT
		}
	}
	s.MeanJCT = jct / float64(s.N)
	s.MeanHit = hit / float64(s.N)
	s.MeanEvicted = ev / float64(s.N)
	if prefetchers > 0 {
		s.MeanPrefetchAcc = acc / float64(prefetchers)
	}
	var ss float64
	for _, r := range runs {
		d := float64(r.JCT) - s.MeanJCT
		ss += d * d
	}
	s.StdDevJCT = math.Sqrt(ss / float64(s.N))
	return s
}

// String renders the summary on one line, the way sweep tables quote
// repeated-run results.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d JCT mean=%v σ=%v [min=%v max=%v] hit=%.1f%% evict=%.1f pf-acc=%.0f%%",
		s.N,
		time.Duration(s.MeanJCT)*time.Microsecond,
		time.Duration(s.StdDevJCT)*time.Microsecond,
		time.Duration(s.MinJCT)*time.Microsecond,
		time.Duration(s.MaxJCT)*time.Microsecond,
		100*s.MeanHit, s.MeanEvicted, 100*s.MeanPrefetchAcc)
}
