package check

import (
	"errors"
	"fmt"
	"strings"

	"mrdspark/internal/block"
	"mrdspark/internal/obs"
)

// AuditorConfig shapes the invariant auditor for one event stream.
type AuditorConfig struct {
	// Nodes bounds the valid worker indices ([0, Nodes), plus
	// obs.ClusterScope).
	Nodes int
	// CacheBytes is the per-node capacity the stream's inserts must
	// respect.
	CacheBytes int64
	// ExpectedReads, when positive, is the DAG-determined read count
	// the stream's hits+misses must sum to at Finish.
	ExpectedReads int
}

// held is one resident block as the stream describes it: its size at
// insert, and whether it is a prefetch no hit has read yet.
type held struct {
	size   int64
	unread bool
}

// Auditor validates the conservation laws every advisory event stream
// must satisfy, whichever implementation produced it:
//
//   - Hits, evictions and purges only of blocks the stream previously
//     made resident; no miss on one; node indices in range.
//   - Per-node resident bytes never exceed capacity once an insert's
//     evictions are in, and no block is inserted, or lands as a
//     prefetch, twice without leaving in between.
//   - Prefetch arrivals never exceed prefetch issues.
//   - The prefetch ledger (DESIGN §4): an event carries a settlement
//     stamp exactly when the stream's own arrivals and hits say its
//     block was an unread prefetch, and a node failure names the number
//     it destroyed — so used + wasted + pending == arrived, event by
//     event.
//   - Every miss is resolved by a disk promote, a replica hit or a
//     recompute; promotes and replica hits never exceed misses.
//   - Node failures clear the node; lost blocks leave the resident set.
//   - Hits+misses equal the DAG-determined read count (when known).
//
// Attach it to a bus (AttachBus) for live auditing or feed a recorded
// stream through Observe, then call Finish for the end-of-stream laws.
type Auditor struct {
	cfg                                             AuditorConfig
	resident                                        []map[block.ID]held
	bytes                                           []int64
	hits, misses, promotes, recomputes, replicaHits int
	issues, arrives                                 int
	over                                            *obs.Event // an insert over capacity, not yet closed
	violations                                      []string
}

// NewAuditor builds an auditor for a stream from a cluster of the
// given shape.
func NewAuditor(cfg AuditorConfig) *Auditor {
	a := &Auditor{cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		a.resident = append(a.resident, map[block.ID]held{})
	}
	a.bytes = make([]int64, cfg.Nodes)
	return a
}

// AttachBus subscribes the auditor to a live bus (obs.Attacher), so
// existing integration tests run audited by adding one line.
func (a *Auditor) AttachBus(b *obs.Bus) { b.Subscribe(a.Observe) }

// violate records a violation, keeping the report bounded.
func (a *Auditor) violate(format string, args ...any) {
	if len(a.violations) < 32 {
		a.violations = append(a.violations, fmt.Sprintf(format, args...))
	}
}

// settle holds a hit's or an exit's settlement stamp against what the
// stream itself says of the block; an exit then leaves the resident set.
func (a *Auditor) settle(ev obs.Event, h held, exit bool) {
	if stamped := ev.Verdict == obs.VerdictUnread; stamped != h.unread {
		a.violate("stage %d: %v of %v on node %d stamped unread=%v, but the stream's arrivals and hits say %v",
			ev.Stage, ev.Kind, ev.Block, ev.Node, stamped, h.unread)
	}
	if exit {
		delete(a.resident[ev.Node], ev.Block)
		a.bytes[ev.Node] -= h.size
	}
}

// Observe audits one event.
func (a *Auditor) Observe(ev obs.Event) {
	if ev.Node != obs.ClusterScope && (ev.Node < 0 || ev.Node >= a.cfg.Nodes) {
		a.violate("%v event on out-of-range node %d", ev.Kind, ev.Node)
		return
	}
	// The simulator logs an insert ahead of the evictions that made room
	// for it, so an insert over capacity is judged at the first event
	// that is not one of them.
	if in := a.over; in != nil && (ev.Kind != obs.KindEvict || ev.Node != in.Node) {
		if a.over = nil; a.bytes[in.Node] > a.cfg.CacheBytes {
			a.violate("stage %d: node %d resident bytes %d exceed capacity %d after inserting %v",
				in.Stage, in.Node, a.bytes[in.Node], a.cfg.CacheBytes, in.Block)
		}
	}
	switch ev.Kind {
	case obs.KindHit:
		a.hits++
		h, ok := a.resident[ev.Node][ev.Block]
		if !ok {
			a.violate("stage %d: hit on node %d for %v, which the stream never made resident there", ev.Stage, ev.Node, ev.Block)
			return
		}
		a.settle(ev, h, false)
		h.unread = false
		a.resident[ev.Node][ev.Block] = h
	case obs.KindMiss:
		a.misses++
		if _, ok := a.resident[ev.Node][ev.Block]; ok {
			a.violate("stage %d: miss on node %d for resident block %v", ev.Stage, ev.Node, ev.Block)
		}
	case obs.KindPromote:
		a.promotes++
	case obs.KindRecompute:
		a.recomputes++
	case obs.KindReplicaHit:
		a.replicaHits++
	case obs.KindInsert, obs.KindPrefetchArrive:
		landing := ev.Kind == obs.KindPrefetchArrive
		if landing {
			if a.arrives++; ev.Verdict != "" { // aborted: never resident
				return
			}
		}
		if _, ok := a.resident[ev.Node][ev.Block]; ok {
			a.violate("stage %d: duplicate insert of %v on node %d", ev.Stage, ev.Block, ev.Node)
			return
		}
		a.resident[ev.Node][ev.Block] = held{size: ev.Bytes, unread: landing}
		a.bytes[ev.Node] += ev.Bytes
		if a.bytes[ev.Node] > a.cfg.CacheBytes {
			in := ev
			a.over = &in
		}
	case obs.KindEvict, obs.KindPurge:
		h, ok := a.resident[ev.Node][ev.Block]
		if !ok {
			a.violate("stage %d: %v of %v on node %d, which holds no such block", ev.Stage, ev.Kind, ev.Block, ev.Node)
			return
		}
		a.settle(ev, h, true)
	case obs.KindBlockLost:
		// Loss can target a disk-only or already-evicted block; only
		// resident copies leave the set.
		h, ok := a.resident[ev.Node][ev.Block]
		a.settle(ev, h, ok)
	case obs.KindNodeFail:
		var died int64
		for _, h := range a.resident[ev.Node] {
			if h.unread {
				died++
			}
		}
		if ev.Value != died {
			a.violate("stage %d: failure of node %d names %d unread prefetches destroyed, the stream left %d there",
				ev.Stage, ev.Node, ev.Value, died)
		}
		a.resident[ev.Node] = map[block.ID]held{}
		a.bytes[ev.Node] = 0
	case obs.KindPrefetchIssue:
		a.issues++
	}
}

// Finish checks the end-of-stream conservation laws and returns every
// violation the stream accumulated, nil if the stream was clean.
func (a *Auditor) Finish() error {
	a.Observe(obs.Ev(obs.KindStageEnd, obs.ClusterScope)) // closes an insert still over capacity
	if a.arrives > a.issues {
		a.violate("%d prefetch arrivals exceed %d issues", a.arrives, a.issues)
	}
	if a.promotes+a.replicaHits > a.misses {
		a.violate("%d promotes + %d replica hits exceed %d misses", a.promotes, a.replicaHits, a.misses)
	}
	if a.promotes+a.replicaHits+a.recomputes < a.misses {
		a.violate("%d misses not all resolved: %d promotes + %d replica hits + %d recomputes",
			a.misses, a.promotes, a.replicaHits, a.recomputes)
	}
	if a.cfg.ExpectedReads > 0 && a.hits+a.misses != a.cfg.ExpectedReads {
		a.violate("hits %d + misses %d != DAG-determined reads %d", a.hits, a.misses, a.cfg.ExpectedReads)
	}
	return a.Err()
}

// Err returns the violations recorded so far without the end-of-stream
// checks (for mid-stream assertions).
func (a *Auditor) Err() error {
	if len(a.violations) == 0 {
		return nil
	}
	return errors.New("check: invariant violations:\n  " + strings.Join(a.violations, "\n  "))
}
