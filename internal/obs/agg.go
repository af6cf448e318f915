package obs

import (
	"maps"
	"sort"
	"sync"

	"mrdspark/internal/block"
	"mrdspark/internal/metrics"
)

// Default bucket layouts for the four run histograms.
var (
	// evictDistanceBounds buckets eviction victims by reference
	// distance in stages; infinite-distance victims land in overflow.
	evictDistanceBounds = []int64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
	// prefetchLeadBounds buckets issue→first-use lead times (µs).
	prefetchLeadBounds = []int64{1_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000, 10_000_000}
	// fetchLatencyBounds buckets modeled remote-fetch service latency
	// including retry backoff (µs).
	fetchLatencyBounds = []int64{100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 1_000_000}
	// recoveryBounds buckets lost-block recovery times: loss or
	// corruption detection to the block being resident again (µs).
	recoveryBounds = []int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000}
)

// Aggregator is a streaming bus subscriber that folds the event stream
// into per-stage and per-node statistics, per-node stage lanes for the
// timeline report, and the four run histograms. Subscribe it with
// Attach; read the results after the run — or, for a live view while
// events are still flowing (the advisory server's /metrics endpoint),
// take a detached copy with Snapshot. Observe and every accessor hold
// the aggregator's mutex, so one aggregator may be fed from multiple
// buses and read concurrently.
type Aggregator struct {
	mu      sync.Mutex
	stages  []metrics.StageStats
	stageIx map[int]int // stage ID -> latest index in stages

	nodes map[int]*metrics.NodeStats

	lanes map[[2]int]*metrics.NodeStageSpan // (node, stage) -> span

	// EvictDistance distributes eviction verdicts by reference
	// distance; PrefetchLead distributes prefetch issue→first-use lead
	// times; FetchLatency distributes modeled remote-fetch latencies
	// including retries; RecoveryTime distributes lost-block
	// loss→re-resident times.
	EvictDistance *metrics.Histogram
	PrefetchLead  *metrics.Histogram
	FetchLatency  *metrics.Histogram
	RecoveryTime  *metrics.Histogram

	// own is the per-block state of the buses subscribed with Attach.
	own blockTimes

	tally Tally // of every event observed: SynthesizeRun's run totals

	// memoStage/memoIx remember the last stage entry resolved (memoIx < 0:
	// none): events arrive in runs of one stage, so most skip the stageIx
	// lookup.
	memoStage, memoIx int
}

// blockTimes is what an aggregator remembers per block between the
// event that opens an interval and the one that closes it: times for
// two histograms, nothing a counter depends on. Blocks are named per
// application — every advisory session calls its blocks rdd_<r>_<p> —
// so this state belongs to one event stream, not to the aggregator: one
// session's first use must not close another's lead time. The buses
// subscribed with Attach share the aggregator's own (a run has one
// bus); each Fold brings its own, which goes when the Fold does. An
// issue time goes when its prefetch settles, or, settled by a node
// failure (which names a count, not blocks), at the block's next issue.
type blockTimes struct {
	issued map[block.ID]int64 // prefetch-issue time per unsettled prefetch
	lost   map[block.ID]int64 // loss/corruption-detect time per block
}

func newBlockTimes() blockTimes {
	return blockTimes{issued: map[block.ID]int64{}, lost: map[block.ID]int64{}}
}

// NewAggregator builds an empty aggregator with the default histogram
// bucket layouts.
func NewAggregator() *Aggregator {
	return &Aggregator{
		stageIx:       map[int]int{},
		nodes:         map[int]*metrics.NodeStats{},
		lanes:         map[[2]int]*metrics.NodeStageSpan{},
		EvictDistance: metrics.NewHistogram("evict_ref_distance", "stages", evictDistanceBounds),
		PrefetchLead:  metrics.NewHistogram("prefetch_lead_time", "us", prefetchLeadBounds),
		FetchLatency:  metrics.NewHistogram("remote_fetch_latency", "us", fetchLatencyBounds),
		RecoveryTime:  metrics.NewHistogram("block_recovery_time", "us", recoveryBounds),
		own:           newBlockTimes(),
		memoIx:        -1,
	}
}

// Attach subscribes the aggregator to the bus and returns the detach
// function that unsubscribes it again (see Bus.Subscribe for the
// synchronization contract).
func (a *Aggregator) Attach(b *Bus) (detach func()) { return b.Subscribe(a.Observe) }

// node returns (creating if needed) the stats entry for a worker.
// Cluster-scope events carry no node and are not charged to one.
func (a *Aggregator) node(id int) *metrics.NodeStats {
	n, ok := a.nodes[id]
	if !ok {
		n = &metrics.NodeStats{Node: id}
		a.nodes[id] = n
	}
	return n
}

// stage returns the open stats entry for the event's stage, creating a
// placeholder if an event arrives for a stage never started (drain
// events before the first stage). The pointer is good until the next
// stage entry is appended.
func (a *Aggregator) stage(ev *Event) *metrics.StageStats {
	if a.memoIx >= 0 && a.memoStage == ev.Stage {
		return &a.stages[a.memoIx]
	}
	ix, ok := a.stageIx[ev.Stage]
	if !ok {
		ix = a.openStage(metrics.StageStats{StageID: ev.Stage, JobID: ev.Job, StartUs: ev.At, EndUs: ev.At})
	}
	a.memoStage, a.memoIx = ev.Stage, ix
	return &a.stages[ix]
}

// openStage appends a stage entry and binds the stage's later events
// to it.
func (a *Aggregator) openStage(st metrics.StageStats) int {
	ix := len(a.stages)
	a.stages = append(a.stages, st)
	a.stageIx[st.StageID] = ix
	a.memoStage, a.memoIx = st.StageID, ix
	return ix
}

// Observe folds one event into the aggregates. It is the bus
// subscriber, safe to call from concurrent buses.
func (a *Aggregator) Observe(ev Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.observe(&a.own, &ev)
}

// observeBatch folds a Fold's chunk in, stamped with the one instant
// the Fold read its clock at, under one acquisition of the lock.
func (a *Aggregator) observeBatch(bt *blockTimes, at int64, evs []Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range evs {
		evs[i].At = at
		a.observe(bt, &evs[i])
	}
}

// observe folds one event into the aggregates, resolving its stage and
// node entries once; bt is the per-block state of the stream the event
// came on. The caller holds the lock.
func (a *Aggregator) observe(bt *blockTimes, ev *Event) {
	a.tally.add(ev)
	if used, wasted := ev.settles(); used+wasted != 0 {
		st, n := a.stage(ev), a.node(ev.Node)
		st.PrefetchUsed += used
		n.PrefetchUsed += used
		st.PrefetchWasted += wasted
		n.PrefetchWasted += wasted
		if t, ok := bt.issued[ev.Block]; ev.HasBlock && ok {
			if used != 0 {
				a.PrefetchLead.Observe(ev.At - t)
			}
			delete(bt.issued, ev.Block)
		}
	}
	switch ev.Kind {
	case KindStageStart:
		// A stage ID can re-execute across recurring jobs; each
		// execution gets a fresh entry and later events bind to it.
		a.openStage(metrics.StageStats{
			StageID: ev.Stage, JobID: ev.Job, Kind: ev.Verdict,
			Tasks: int(ev.Value), StartUs: ev.At, EndUs: ev.At,
		})

	case KindStageEnd:
		a.stage(ev).EndUs = ev.At

	case KindTaskStart:
		a.node(ev.Node).Tasks++
		key := [2]int{ev.Node, ev.Stage}
		ln, ok := a.lanes[key]
		if !ok {
			ln = &metrics.NodeStageSpan{Node: ev.Node, StageID: ev.Stage, JobID: ev.Job, StartUs: ev.At, EndUs: ev.At}
			a.lanes[key] = ln
		}
		if ev.At < ln.StartUs {
			ln.StartUs = ev.At
		}
		ln.Tasks++

	case KindTaskEnd:
		if ln, ok := a.lanes[[2]int{ev.Node, ev.Stage}]; ok && ev.At > ln.EndUs {
			ln.EndUs = ev.At
		}

	case KindHit:
		st, n := a.stage(ev), a.node(ev.Node)
		st.Hits++
		n.Hits++

	case KindMiss:
		a.stage(ev).Misses++
		a.node(ev.Node).Misses++

	case KindPromote:
		st, n := a.stage(ev), a.node(ev.Node)
		st.DiskPromotes++
		n.DiskPromotes++
		addBytes(st, n, ev)

	case KindRecompute:
		a.stage(ev).Recomputes++
		a.node(ev.Node).Recomputes++

	case KindInsert:
		st, n := a.stage(ev), a.node(ev.Node)
		st.Inserts++
		n.Inserts++
		addBytes(st, n, ev)
		if t, ok := bt.lost[ev.Block]; ok {
			a.RecoveryTime.Observe(ev.At - t)
			delete(bt.lost, ev.Block)
		}

	case KindEvict:
		st, n := a.stage(ev), a.node(ev.Node)
		st.Evictions++
		n.Evictions++

	case KindPurge:
		st, n := a.stage(ev), a.node(ev.Node)
		st.Purged++
		n.Purged++

	case KindPrefetchIssue:
		a.stage(ev).PrefetchIssued++
		a.node(ev.Node).PrefetchIssued++
		bt.issued[ev.Block] = ev.At

	case KindPrefetchArrive, KindReplicaWrite, KindReplicaHit:
		a.stage(ev).BytesMoved += ev.Bytes
		if ev.Node != ClusterScope {
			a.node(ev.Node).BytesMoved += ev.Bytes
		}

	case KindEvictVerdict:
		// Victims with no remaining references (infinite distance,
		// negative sentinel) land in the overflow bucket: "further than
		// any finite distance".
		if ev.Verdict == "mrd" {
			d := ev.Value
			if d < 0 {
				d = evictDistanceBounds[len(evictDistanceBounds)-1] + 1
			}
			a.EvictDistance.Observe(d)
		}

	case KindRemoteFetch:
		a.FetchLatency.Observe(ev.Value)

	case KindFetchRetry:
		a.stage(ev).FetchRetries++
		a.node(ev.Node).FetchRetries++

	case KindFetchGiveUp:
		a.stage(ev).FetchGiveUps++
		a.node(ev.Node).FetchGiveUps++

	case KindNodeFail:
		a.node(ev.Node).Crashes++

	case KindStraggleBegin:
		a.node(ev.Node).Stragglers++

	case KindBlockLost, KindCorruptDetect:
		bt.lost[ev.Block] = ev.At
	}
}

// addBytes charges the event's bytes to its stage and node entries.
// Cluster-scope events carry no node and are not charged to one.
func addBytes(st *metrics.StageStats, n *metrics.NodeStats, ev *Event) {
	st.BytesMoved += ev.Bytes
	if ev.Node != ClusterScope {
		n.BytesMoved += ev.Bytes
	}
}

// SetNodeBusy records a node's device utilization; the simulator calls
// it once per node when the run completes (busy time lives in the
// device queues, not in events).
func (a *Aggregator) SetNodeBusy(node int, diskUs, netUs int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.node(node)
	n.DiskBusyUs = diskUs
	n.NetBusyUs = netUs
}

// StageStats returns the per-stage statistics in execution order.
func (a *Aggregator) StageStats() []metrics.StageStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]metrics.StageStats(nil), a.stages...)
}

// NodeStats returns the per-node statistics ordered by node index.
func (a *Aggregator) NodeStats() []metrics.NodeStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]metrics.NodeStats, 0, len(a.nodes))
	for _, n := range a.nodes {
		out = append(out, *n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Lanes returns the per-node stage activity spans, ordered by node
// then start time — the rows of the report's per-node timeline.
func (a *Aggregator) Lanes() []metrics.NodeStageSpan {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]metrics.NodeStageSpan, 0, len(a.lanes))
	for _, ln := range a.lanes {
		out = append(out, *ln)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		if out[i].StartUs != out[j].StartUs {
			return out[i].StartUs < out[j].StartUs
		}
		return out[i].StageID < out[j].StageID
	})
	return out
}

// Histograms returns the four run histograms in a stable order. The
// pointers are live: read them after the run has quiesced, or call
// Histograms on a Snapshot for a concurrent-safe view.
func (a *Aggregator) Histograms() []*metrics.Histogram {
	return []*metrics.Histogram{a.EvictDistance, a.PrefetchLead, a.FetchLatency, a.RecoveryTime}
}

// Snapshot returns a detached deep copy of the aggregates, safe to read
// (or render with WritePrometheus) while events keep flowing into the
// original.
func (a *Aggregator) Snapshot() *Aggregator {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := &Aggregator{
		stages:        append([]metrics.StageStats(nil), a.stages...),
		stageIx:       make(map[int]int, len(a.stageIx)),
		nodes:         make(map[int]*metrics.NodeStats, len(a.nodes)),
		lanes:         make(map[[2]int]*metrics.NodeStageSpan, len(a.lanes)),
		EvictDistance: cloneHistogram(a.EvictDistance),
		PrefetchLead:  cloneHistogram(a.PrefetchLead),
		FetchLatency:  cloneHistogram(a.FetchLatency),
		RecoveryTime:  cloneHistogram(a.RecoveryTime),
		own:           blockTimes{issued: maps.Clone(a.own.issued), lost: maps.Clone(a.own.lost)},
		memoIx:        -1,
		tally:         a.tally,
	}
	for k, v := range a.stageIx {
		s.stageIx[k] = v
	}
	for k, v := range a.nodes {
		n := *v
		s.nodes[k] = &n
	}
	for k, v := range a.lanes {
		ln := *v
		s.lanes[k] = &ln
	}
	return s
}

// cloneHistogram deep-copies a histogram's counts; the immutable bucket
// layout is shared.
func cloneHistogram(h *metrics.Histogram) *metrics.Histogram {
	c := *h
	c.Counts = append([]int64(nil), h.Counts...)
	return &c
}

// FillRun sets the run's stream-derived fields (metrics.Run marks them),
// one kind's count each: the one place a run reads such a count.
func (t Tally) FillRun(r *metrics.Run) {
	r.Hits = t[KindHit].N
	r.Misses = t[KindMiss].N
	r.DiskPromotes = t[KindPromote].N
	r.Recomputes = t[KindRecompute].N
	r.Evictions = t[KindEvict].N
	r.PurgedBlocks = t[KindPurge].N
	r.PrefetchIssued = t[KindPrefetchIssue].N
	r.NodeCrashes = t[KindNodeFail].N
	r.NodeRejoins = t[KindNodeRejoin].N
	r.StragglerEvents = t[KindStraggleBegin].N
	r.BlocksLost = t[KindBlockLost].N
	r.BlocksCorrupted = t[KindCorruptDetect].N
	r.ReplicaWriteBytes = t[KindReplicaWrite].Bytes
	r.ReplicaHits = t[KindReplicaHit].N
	r.FetchRetries = t[KindFetchRetry].N
	r.FetchGiveUps = t[KindFetchGiveUp].N
	r.StagesExecuted = int(t[KindStageStart].N)
	r.TasksExecuted = t[KindTaskStart].N
}

// SynthesizeRun reconstructs the headline run counters — what an
// offline trace replay can recover when the original metrics.Run is not
// available: the stream-derived fields from the tally, as the live run
// fills them, prefetch outcomes, jobs and JCT from the stage entries.
// I/O volumes and wall time live outside the event stream and stay zero.
func (a *Aggregator) SynthesizeRun(workload, policy string) metrics.Run {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := metrics.Run{Workload: workload, Policy: policy}
	a.tally.FillRun(&r)
	jobs := map[int]bool{}
	for _, st := range a.stages {
		r.PrefetchUsed += st.PrefetchUsed
		r.PrefetchWasted += st.PrefetchWasted
		jobs[st.JobID] = true
		if st.EndUs > r.JCT {
			r.JCT = st.EndUs
		}
	}
	r.Jobs = len(jobs)
	return r
}
