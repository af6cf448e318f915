package metrics

// Per-stage and per-node statistics, the Spark-UI-style breakdown the
// observability layer (internal/obs) aggregates from the event stream.
// Where Run holds flat end-of-run totals, these attribute the same
// counters to the stage that was executing — or the node that acted —
// when each event fired.

// StageStats is one executed stage's slice of the run's cache and I/O
// activity. Background events (prefetch arrivals, write-behind) that
// land while the stage executes are attributed to it, matching how
// Spark's UI charges concurrent work to the running stage.
type StageStats struct {
	StageID int
	JobID   int
	Kind    string // "shuffleMap" or "result"
	Tasks   int

	StartUs int64 // stage-start simulated time, µs
	EndUs   int64 // stage-end simulated time, µs

	Hits         int64
	Misses       int64
	DiskPromotes int64
	Recomputes   int64
	Inserts      int64
	Evictions    int64 // demand evictions under memory pressure
	Purged       int64 // blocks dropped by cluster-wide purge orders

	PrefetchIssued int64
	PrefetchUsed   int64 // prefetched blocks first hit during this stage
	PrefetchWasted int64 // prefetched blocks evicted/purged unused during this stage

	FetchRetries int64
	FetchGiveUps int64

	// BytesMoved sums the byte sizes of every block event in the stage
	// (inserts, promotes, prefetches, replica traffic) — the stage's
	// cache-driven data movement.
	BytesMoved int64
}

// DurationUs returns the stage's wall time in simulated microseconds.
func (s StageStats) DurationUs() int64 { return s.EndUs - s.StartUs }

// NodeStats is one worker's event-derived view of the run: what the
// node's cache did, how much data it moved, and how busy its devices
// were. (The simulator's end-of-run store occupancy lives in
// sim.NodeStats; this type is the streaming, per-event counterpart.)
type NodeStats struct {
	Node int

	Hits         int64
	Misses       int64
	DiskPromotes int64
	Recomputes   int64
	Inserts      int64
	Evictions    int64
	Purged       int64

	PrefetchIssued int64
	PrefetchUsed   int64
	PrefetchWasted int64

	Tasks      int64 // tasks executed on the node
	BytesMoved int64

	Crashes      int64
	Stragglers   int64
	FetchRetries int64 // retries of fetches the node made
	FetchGiveUps int64

	// Device busy time, filled in from the simulator's device queues
	// when the run completes (events do not carry utilization).
	DiskBusyUs int64
	NetBusyUs  int64
}

// NodeStageSpan is one node's activity window within one stage: the
// first task start to the last task end of the tasks the node ran for
// that stage. The HTML report's per-node lanes render these.
type NodeStageSpan struct {
	Node    int
	StageID int
	JobID   int
	StartUs int64
	EndUs   int64
	Tasks   int
}
