// Package obs is the observability layer: a structured event bus that
// every cache, scheduling, shuffle and fault decision in the simulator
// and the MRD manager flows through, plus streaming aggregators and
// exporters (JSON-lines trace, Prometheus-style text exposition, and a
// self-contained Spark-UI-like HTML run report).
//
// Every bus tallies its events by kind (Tally), the one count of each
// fact an event carries; delivery is off until something subscribes —
// a Recorder for traces, an Aggregator for per-stage/per-node
// statistics. Emit on a subscriber-less bus only tallies.
//
// Six kinds carry a prefetch-settlement stamp, and the Aggregator's used
// and wasted columns count nothing else: hit, evict, purge and
// block-lost (verdict VerdictUnread), prefetch-arrive (VerdictDown,
// VerdictResident or VerdictRefused when aborted) and node-fail (the
// number of unread prefetches destroyed, as the value).
package obs

import (
	"encoding/json"
	"fmt"

	"mrdspark/internal/block"
)

// Kind is the event taxonomy. The string names are the JSON wire
// values; the pre-existing trace kinds keep their exact names so old
// trace consumers read new streams unchanged.
type Kind uint8

const (
	// Scheduling events.
	KindStageStart Kind = iota // verdict = stage kind, value = task count
	KindStageEnd               // value = stage duration (µs)
	KindTaskStart
	KindTaskEnd

	// Cache events, emitted per block read/write.
	KindHit
	KindMiss // followed by the miss's outcome: promote, replica-hit or recompute
	KindPromote
	KindRecompute
	KindInsert
	KindEvict
	KindPurge
	KindPrefetchIssue
	KindPrefetchArrive

	// Fault and recovery events.
	KindNodeFail
	KindNodeRejoin
	KindStraggleBegin
	KindStraggleEnd
	KindBlockLost
	KindBlockCorrupt
	KindCorruptDetect
	KindReplicaWrite
	KindReplicaHit
	KindFetchRetry // value = backoff added (µs)
	KindFetchGiveUp
	KindRemoteFetch // value = modeled fetch service latency incl. retries (µs)

	// Policy decision events (the MRD manager and cache monitors).
	KindPurgeOrder    // value = blocks purged by the order
	KindPrefetchOrder // verdict = "fits" or "forced"
	KindTableReissue
	KindEvictVerdict  // value = victim's reference distance, verdict = selection mode
	KindStaleFallback // victim chosen by recency inside a stale-table window

	numKinds
)

var kindNames = [numKinds]string{
	KindStageStart:     "stage-start",
	KindStageEnd:       "stage-end",
	KindTaskStart:      "task-start",
	KindTaskEnd:        "task-end",
	KindHit:            "hit",
	KindMiss:           "miss",
	KindPromote:        "promote",
	KindRecompute:      "recompute",
	KindInsert:         "insert",
	KindEvict:          "evict",
	KindPurge:          "purge",
	KindPrefetchIssue:  "prefetch-issue",
	KindPrefetchArrive: "prefetch-arrive",
	KindNodeFail:       "node-fail",
	KindNodeRejoin:     "node-rejoin",
	KindStraggleBegin:  "straggle-begin",
	KindStraggleEnd:    "straggle-end",
	KindBlockLost:      "block-lost",
	KindBlockCorrupt:   "block-corrupt",
	KindCorruptDetect:  "corrupt-detect",
	KindReplicaWrite:   "replica-write",
	KindReplicaHit:     "replica-hit",
	KindFetchRetry:     "fetch-retry",
	KindFetchGiveUp:    "fetch-giveup",
	KindRemoteFetch:    "remote-fetch",
	KindPurgeOrder:     "purge-order",
	KindPrefetchOrder:  "prefetch-order",
	KindTableReissue:   "table-reissue",
	KindEvictVerdict:   "evict-verdict",
	KindStaleFallback:  "stale-fallback",
}

// String returns the wire name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalJSON writes the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses a wire name back into a Kind.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}

// ClusterScope is the Node value of events that concern the whole
// cluster (stage boundaries, manager decisions) rather than one
// worker.
const ClusterScope = -1

// Event is one observed decision. At, Stage and Job are stamped by the
// bus from its clock and stage context at emission, so every block
// event carries the stage and job that were executing.
type Event struct {
	At       int64 // simulated µs
	Node     int   // worker index, or ClusterScope
	Kind     Kind
	Stage    int
	Job      int
	Block    block.ID
	HasBlock bool   // distinguishes "no block" from the valid block rdd_0_0
	Bytes    int64  // byte size the event moved or concerns, 0 if n/a
	Value    int64  // kind-specific scalar (distance, latency, duration)
	Verdict  string // kind-specific label ("forced", "stale-fallback", ...)
}

// Ev builds a cluster- or node-scope event with no block.
func Ev(kind Kind, node int) Event { return Event{Kind: kind, Node: node} }

// BlockEv builds a block event.
func BlockEv(kind Kind, node int, id block.ID, bytes int64) Event {
	return Event{Kind: kind, Node: node, Block: id, HasBlock: true, Bytes: bytes}
}

// WithValue returns a copy of the event with the scalar set.
func (e Event) WithValue(v int64) Event { e.Value = v; return e }

// WithBytes returns a copy of the event with the byte size set (for
// block-less events like remote shuffle fetches).
func (e Event) WithBytes(n int64) Event { e.Bytes = n; return e }

// WithVerdict returns a copy of the event with the verdict label set.
func (e Event) WithVerdict(s string) Event { e.Verdict = s; return e }

// Settlement verdicts (DESIGN §4; the package comment says which kinds
// carry them). VerdictUnread: the block was a prefetch nothing had read
// — used, when the event is its first hit; wasted, when it is its exit.
// The other three are why an arrival was aborted, the prefetch wasted
// without ever being resident: the node was down, the block had been
// demand-loaded meanwhile, or the store refused it.
const (
	VerdictUnread   = "unread"
	VerdictDown     = "down"
	VerdictResident = "resident"
	VerdictRefused  = "refused"
)

// Settling returns the event stamped VerdictUnread if unread is set.
func (e Event) Settling(unread bool) Event {
	if unread {
		e.Verdict = VerdictUnread
	}
	return e
}

// settles reads the stamps: how many prefetches the event settles as
// used and how many as wasted.
func (e *Event) settles() (used, wasted int64) {
	switch e.Kind {
	case KindNodeFail:
		return 0, e.Value
	case KindPrefetchArrive:
		if e.Verdict != "" {
			return 0, 1
		}
	case KindHit, KindEvict, KindPurge, KindBlockLost:
		if e.Verdict == VerdictUnread {
			if e.Kind == KindHit {
				return 1, 0
			}
			return 0, 1
		}
	}
	return 0, 0
}

// wireEvent is the JSON-lines wire shape shared by Marshal and
// Unmarshal.
type wireEvent struct {
	At      int64  `json:"at"`
	Node    int    `json:"node"`
	Kind    Kind   `json:"kind"`
	Block   string `json:"block,omitempty"`
	Stage   int    `json:"stage"`
	Job     int    `json:"job"`
	Bytes   int64  `json:"bytes,omitempty"`
	Value   int64  `json:"value,omitempty"`
	Verdict string `json:"verdict,omitempty"`
}

// MarshalJSON renders the event in the JSON-lines wire format: at,
// node, kind, block (when the event names one), stage and job always,
// plus bytes, value and verdict when set. ReadJSONL parses it back, and
// cmd/mrdreport replays recorded traces in this format.
func (e Event) MarshalJSON() ([]byte, error) {
	w := wireEvent{At: e.At, Node: e.Node, Kind: e.Kind, Stage: e.Stage, Job: e.Job,
		Bytes: e.Bytes, Value: e.Value, Verdict: e.Verdict}
	if e.HasBlock {
		w.Block = e.Block.String()
	}
	return json.Marshal(w)
}

// UnmarshalJSON parses one wire-format event back, e.g. when replaying
// a recorded JSONL trace through an Aggregator (cmd/mrdreport).
func (e *Event) UnmarshalJSON(data []byte) error {
	var w wireEvent
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*e = Event{At: w.At, Node: w.Node, Kind: w.Kind, Stage: w.Stage, Job: w.Job,
		Bytes: w.Bytes, Value: w.Value, Verdict: w.Verdict}
	if w.Block != "" {
		id, err := block.ParseID(w.Block)
		if err != nil {
			return err
		}
		e.Block, e.HasBlock = id, true
	}
	return nil
}

// Bus tallies every event and fans it out to subscribers, stamping each
// with the current simulated time and the executing stage/job. A
// subscriber-less bus is disabled: Emit only tallies, without
// allocating. A nil bus does nothing, so emission sites need no guards.
type Bus struct {
	enabled bool
	clock   func() int64
	stage   int
	job     int
	subs    []func(Event)
	tally   Tally
}

// New returns a disabled bus; Subscribe enables it.
func New() *Bus { return &Bus{} }

// Enabled reports whether events are being delivered.
func (b *Bus) Enabled() bool { return b != nil && b.enabled }

// SetClock installs the simulated-time source used to stamp events.
func (b *Bus) SetClock(fn func() int64) { b.clock = fn }

// SetStage sets the stage/job context stamped onto subsequent events.
// The simulator calls it at each stage boundary before anything else
// observes the stage.
func (b *Bus) SetStage(stage, job int) { b.stage, b.job = stage, job }

// Subscribe registers a delivery function and enables the bus. It
// returns a detach function that removes the subscription again,
// disabling the bus when no subscribers remain. Subscribers run
// synchronously in subscription order; they must not emit back into
// the bus. The bus is not internally synchronized: detach must run
// under the same serialization as Emit (for a server session, the
// session lock).
func (b *Bus) Subscribe(fn func(Event)) (detach func()) {
	b.subs = append(b.subs, fn)
	b.enabled = true
	i := len(b.subs) - 1
	return func() {
		b.subs[i] = nil
		for _, s := range b.subs {
			if s != nil {
				return
			}
		}
		b.enabled = false
	}
}

// Tally returns the counts of every event emitted on the bus so far.
func (b *Bus) Tally() Tally { return b.tally }

// Emit tallies the event, then, on an enabled bus, stamps and delivers
// it. On a disabled bus it only tallies: no clock read, no allocation.
func (b *Bus) Emit(ev Event) {
	if b == nil {
		return
	}
	b.tally.add(&ev)
	if !b.enabled {
		return
	}
	if b.clock != nil {
		ev.At = b.clock()
	}
	ev.Stage, ev.Job = b.stage, b.job
	for _, fn := range b.subs {
		if fn != nil {
			fn(ev)
		}
	}
}

// Count is a tally's entry for one kind: events, and their Bytes summed.
type Count struct{ N, Bytes int64 }

// Tally counts an event stream by kind. Every Bus keeps one of all it
// is given, enabled or not, and an Aggregator one of all it observes.
type Tally [numKinds]Count

func (t *Tally) add(ev *Event) {
	c := &t[ev.Kind]
	c.N++
	c.Bytes += ev.Bytes
}

// Attacher is implemented by policy factories (the MRD manager) that
// want to emit their decisions onto the run's bus. The simulator
// attaches its bus to any factory implementing it.
type Attacher interface {
	AttachBus(*Bus)
}
