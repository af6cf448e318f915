// Package fault describes deterministic, seeded fault-injection
// schedules for the cluster simulator: node crashes (with optional
// rejoin), transient stragglers, individual block loss or corruption,
// and probabilistic remote-fetch failures with bounded retry. A
// Schedule is pure data — the simulator interprets it — so the same
// schedule and seed replay bit-for-bit across runs, which is what lets
// the chaos experiments compare policies under identical fault
// sequences.
package fault

import (
	"fmt"

	"mrdspark/internal/block"
)

// Kind discriminates fault events.
type Kind int

const (
	// NodeCrash wipes a node's memory, local disk and policy state
	// just before the event's stage. With RejoinAfter > 0 the node
	// stays down (no tasks, no inserts) for that many executed stages
	// and then rejoins empty; with RejoinAfter == 0 it is replaced
	// immediately by a fresh empty node, the seed repo's old behaviour.
	NodeCrash Kind = iota
	// Straggler multiplies a node's disk and NIC service times by
	// DiskFactor/NetFactor for Duration executed stages — a transient
	// slow disk or congested link, not a failure.
	Straggler
	// LoseBlock drops one block's primary copies (home-node memory and
	// disk). Surviving replicas on other nodes are untouched, so the
	// event distinguishes the replica-refetch path from full lineage
	// recomputation.
	LoseBlock
	// CorruptBlock rots the block's home-node *disk* copy: the bytes
	// stay "present" until the next demand read detects the corruption,
	// drops the copy, and falls back to replica or lineage. The
	// in-memory copy is unaffected until evicted.
	CorruptBlock
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case NodeCrash:
		return "node-crash"
	case Straggler:
		return "straggler"
	case LoseBlock:
		return "lose-block"
	case CorruptBlock:
		return "corrupt-block"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault. Stage is the executed-stage index
// (0-based, in execution order); the event fires just before that
// stage starts.
type Event struct {
	Stage int
	Kind  Kind
	// Node targets NodeCrash and Straggler events.
	Node int
	// RejoinAfter (NodeCrash) is the number of executed stages the node
	// stays down before rejoining empty; 0 means immediate replacement.
	RejoinAfter int
	// DiskFactor and NetFactor (Straggler) multiply device service
	// times; both must be >= 1.
	DiskFactor float64
	NetFactor  float64
	// Duration (Straggler) is the window length in executed stages.
	Duration int
	// Block targets LoseBlock and CorruptBlock events.
	Block block.ID
}

// String renders the event for warnings and logs.
func (e Event) String() string {
	switch e.Kind {
	case NodeCrash:
		if e.RejoinAfter > 0 {
			return fmt.Sprintf("%s(node=%d,stage=%d,rejoin+%d)", e.Kind, e.Node, e.Stage, e.RejoinAfter)
		}
		return fmt.Sprintf("%s(node=%d,stage=%d)", e.Kind, e.Node, e.Stage)
	case Straggler:
		return fmt.Sprintf("%s(node=%d,stage=%d,disk×%.1f,net×%.1f,%d stages)",
			e.Kind, e.Node, e.Stage, e.DiskFactor, e.NetFactor, e.Duration)
	default:
		return fmt.Sprintf("%s(%s,stage=%d)", e.Kind, e.Block, e.Stage)
	}
}

// Schedule is a full fault-injection plan for one run. The zero value
// (and a nil *Schedule) injects nothing. All randomness — only the
// remote-fetch failure draws — comes from a splitmix64 stream seeded
// with Seed, so equal schedules replay identically.
type Schedule struct {
	// Seed initializes the fetch-failure RNG stream.
	Seed int64
	// Events fire in stage order; same-stage events fire in slice order.
	Events []Event
	// Replication is the copy count for cached and shuffle blocks.
	// 1 (or 0, normalized to 1) means no replication; R > 1 writes
	// R-1 replica copies onto the next nodes' disks, so a lost primary
	// can be re-fetched instead of recomputed from lineage.
	Replication int
	// FetchFailureRate is the probability in [0,1) that one remote
	// block fetch attempt fails transiently and must be retried.
	FetchFailureRate float64
	// MaxFetchRetries bounds the retries after a first failed attempt;
	// 0 means DefaultFetchRetries. Exhausting the budget escalates the
	// read to lineage recomputation, charged to the run.
	MaxFetchRetries int
	// RetryBackoffUs is the base exponential backoff in simulated
	// microseconds (attempt k waits RetryBackoffUs << k); 0 means
	// DefaultRetryBackoffUs.
	RetryBackoffUs int64
}

// Defaults for the retry model, applied when the schedule leaves the
// fields zero.
const (
	DefaultFetchRetries   = 3
	DefaultRetryBackoffUs = 1000 // 1 ms base, doubling per attempt
)

// ReplicationFactor returns the normalized replication factor (>= 1).
// It is nil-safe so the simulator can call it on an absent schedule.
func (s *Schedule) ReplicationFactor() int {
	if s == nil || s.Replication < 1 {
		return 1
	}
	return s.Replication
}

// Retries returns the normalized retry budget.
func (s *Schedule) Retries() int {
	if s == nil || s.MaxFetchRetries <= 0 {
		return DefaultFetchRetries
	}
	return s.MaxFetchRetries
}

// Backoff returns the normalized base backoff in microseconds.
func (s *Schedule) Backoff() int64 {
	if s == nil || s.RetryBackoffUs <= 0 {
		return DefaultRetryBackoffUs
	}
	return s.RetryBackoffUs
}

// Empty reports whether the schedule injects nothing at all.
func (s *Schedule) Empty() bool {
	return s == nil || (len(s.Events) == 0 && s.FetchFailureRate == 0 && s.ReplicationFactor() == 1)
}

// Validate checks the schedule against a cluster of the given size and
// returns the first structural error. Whether every event actually
// fires depends on the executed stage count, which is only known after
// the run; the simulator records unfired events as a warning in the
// run's metrics instead.
func (s *Schedule) Validate(nodes int) error {
	if s == nil {
		return nil
	}
	if s.FetchFailureRate < 0 || s.FetchFailureRate >= 1 {
		return fmt.Errorf("fault: FetchFailureRate %v outside [0,1)", s.FetchFailureRate)
	}
	if s.MaxFetchRetries < 0 {
		return fmt.Errorf("fault: negative MaxFetchRetries %d", s.MaxFetchRetries)
	}
	if s.RetryBackoffUs < 0 {
		return fmt.Errorf("fault: negative RetryBackoffUs %d", s.RetryBackoffUs)
	}
	if s.Replication < 0 || s.Replication > nodes {
		return fmt.Errorf("fault: replication factor %d outside [1,%d nodes]", s.Replication, nodes)
	}
	for i, e := range s.Events {
		if e.Stage < 0 {
			return fmt.Errorf("fault: event %d (%s): negative stage", i, e)
		}
		switch e.Kind {
		case NodeCrash:
			if e.Node < 0 || e.Node >= nodes {
				return fmt.Errorf("fault: event %d (%s): node outside [0,%d)", i, e, nodes)
			}
			if e.RejoinAfter < 0 {
				return fmt.Errorf("fault: event %d (%s): negative RejoinAfter", i, e)
			}
		case Straggler:
			if e.Node < 0 || e.Node >= nodes {
				return fmt.Errorf("fault: event %d (%s): node outside [0,%d)", i, e, nodes)
			}
			if e.DiskFactor < 1 || e.NetFactor < 1 {
				return fmt.Errorf("fault: event %d (%s): slowdown factors must be >= 1", i, e)
			}
			if e.Duration < 1 {
				return fmt.Errorf("fault: event %d (%s): duration must be >= 1 stage", i, e)
			}
		case LoseBlock, CorruptBlock:
			// Block validity against the DAG is the simulator's call;
			// an absent block is a no-op event, not an error.
		default:
			return fmt.Errorf("fault: event %d: unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// Crash returns the minimal schedule: one permanent crash of the node
// before the given executed stage.
func Crash(node, stage int) *Schedule {
	return &Schedule{Events: []Event{{Stage: stage, Kind: NodeCrash, Node: node}}}
}

// RNG is a splitmix64 stream: tiny, seedable, and stable across Go
// releases (math/rand's stream is not guaranteed), which keeps fault
// replays byte-identical forever.
type RNG struct {
	state uint64
}

// NewRNG seeds a stream. Distinct seeds give independent streams.
func NewRNG(seed int64) *RNG {
	return &RNG{state: uint64(seed)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3}
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
