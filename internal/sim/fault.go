package sim

import (
	"fmt"
	"strings"

	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
	"mrdspark/internal/fault"
	"mrdspark/internal/obs"
	"mrdspark/internal/policy"
)

// This file interprets a fault.Schedule against the running
// simulation: it fires crash/straggler/block events at stage
// boundaries, reroutes work around down nodes, maintains replica
// copies, and models remote-fetch retry with exponential backoff.
// Everything here is deterministic: event order follows the schedule,
// and the only randomness is the seeded fetch-failure stream.

// applyFaults runs at each stage boundary (before stageIx advances):
// first recoveries — straggler windows that expired and crashed nodes
// due to rejoin — then the events scheduled for this stage.
func (s *Simulation) applyFaults() {
	if s.opts.Fault == nil {
		return
	}
	for _, n := range s.nodes {
		if n.down && n.rejoinAt <= s.stageIx {
			n.down = false
			s.bus.Emit(obs.Ev(obs.KindNodeRejoin, n.id))
		}
		if n.slowUntil != 0 && n.slowUntil <= s.stageIx {
			n.slowUntil = 0
			n.diskDev.SetSlowdown(1)
			n.netDev.SetSlowdown(1)
			s.bus.Emit(obs.Ev(obs.KindStraggleEnd, n.id))
		}
	}
	for _, ev := range s.faultsAt[s.stageIx] {
		switch ev.Kind {
		case fault.NodeCrash:
			s.crashNode(ev)
		case fault.Straggler:
			n := s.nodes[ev.Node]
			n.diskDev.SetSlowdown(ev.DiskFactor)
			n.netDev.SetSlowdown(ev.NetFactor)
			n.slowUntil = s.stageIx + ev.Duration
			s.bus.Emit(obs.Ev(obs.KindStraggleBegin, n.id))
		case fault.LoseBlock:
			s.loseBlock(ev.Block)
		case fault.CorruptBlock:
			home := s.nodes[cluster.HomeNode(ev.Block, len(s.nodes))]
			if home.disk.Has(ev.Block) {
				s.corrupt.Put(ev.Block, struct{}{})
				s.bus.Emit(obs.BlockEv(obs.KindBlockCorrupt, home.id, ev.Block, 0))
			}
		}
	}
}

// crashNode wipes the node — memory, local disk (replica copies
// included) and policy state — and notifies the factory so it can
// re-issue distributed state (the MRD_Table re-send of §4.4). With
// RejoinAfter > 0 the node stays down until the rejoin stage; with
// replication factor 1 the node's share of the application's shuffle
// output so far is lost too, and its regeneration is charged as
// background recovery work.
func (s *Simulation) crashNode(ev fault.Event) {
	n := s.nodes[ev.Node]
	s.bus.Emit(obs.Ev(obs.KindNodeFail, n.id).WithValue(n.mem.Prefetch.Pending()))

	// The replacement store carries the node's prefetch ledger on: the
	// unread prefetches that died with the old one are wasted in it.
	n.mem.Clear()
	n.disk.Clear()
	ledger := n.mem.Prefetch
	n.mem = cluster.NewMemoryStore(s.cfg.CacheBytes, s.factory.NewNodePolicy(n.id))
	n.mem.Prefetch = ledger
	s.noteUsed(n)

	if s.replication() == 1 {
		// The node's 1/N share of all shuffle bytes written so far must
		// be regenerated before dependent stages re-read it; charge the
		// rewrite to the replacement node's disk at background priority.
		lost := s.run.ShuffleWriteBytes / int64(len(s.nodes))
		if lost > 0 {
			s.run.RecomputeBytes += lost
			s.run.DiskWriteBytes += lost
			n.diskDev.Transfer(lost, Background, func() {})
		}
	}

	// A crash always resolves the node's down window from scratch:
	// RejoinAfter == 0 means immediate replacement even when an earlier
	// crash left the node down with a pending rejoin (crash-then-crash
	// before rejoin must not resurrect the stale window).
	n.down = ev.RejoinAfter > 0
	n.rejoinAt = s.stageIx + ev.RejoinAfter
	if fo, ok := s.factory.(policy.NodeFailureObserver); ok {
		fo.OnNodeFailure(n.id)
	}
}

// loseBlock drops one block's primary copies (home memory and disk).
// Replica copies on other nodes survive, which is what lets the next
// reference take the replica-refetch path instead of lineage.
func (s *Simulation) loseBlock(id block.ID) {
	home := s.nodes[cluster.HomeNode(id, len(s.nodes))]
	info, removed := home.mem.Remove(id)
	s.noteUsed(home)
	if home.disk.Has(id) {
		home.disk.Remove(id)
		removed = true
	}
	if !removed {
		return
	}
	s.bus.Emit(obs.BlockEv(obs.KindBlockLost, home.id, id, 0).Settling(info.Unread))
}

// replication returns the schedule's normalized replication factor.
func (s *Simulation) replication() int { return s.opts.Fault.ReplicationFactor() }

// execNode places task p, skipping down nodes (their work lands on the
// next alive node, concentrating load the way a real cluster does).
func (s *Simulation) execNode(p int) *node {
	n := s.nodes[p%len(s.nodes)]
	for i := 1; n.down && i <= len(s.nodes); i++ {
		n = s.nodes[(p+i)%len(s.nodes)]
	}
	return n
}

// diskHas reports a usable on-disk copy: present and not corrupt.
func (s *Simulation) diskHas(n *node, id block.ID) bool {
	return n.disk.Has(id) && !s.corrupt.Has(id)
}

// replicate ships R-1 replica copies of a newly inserted block to the
// next nodes' disks at background priority.
func (s *Simulation) replicate(home *node, info block.Info) {
	r := s.replication()
	if r == 1 {
		return
	}
	for k := 1; k < r; k++ {
		rn := s.nodes[(info.ID.Partition+k)%len(s.nodes)]
		if rn.down {
			continue
		}
		if !rn.disk.HasReplica(info.ID) {
			rn.disk.PutReplica(info.ID, info.Size)
			s.bus.Emit(obs.BlockEv(obs.KindReplicaWrite, rn.id, info.ID, info.Size))
			// The copy crosses the home NIC and lands on the replica
			// node's disk, both off the critical path.
			home.netDev.Transfer(info.Size, Background, func() {})
			rn.diskDev.Transfer(info.Size, Background, func() {})
		}
	}
}

// findReplica locates a surviving, usable replica of the block among
// its deterministic placement slots, preferring the nearest slot.
func (s *Simulation) findReplica(id block.ID) (*node, bool) {
	r := s.replication()
	home := cluster.HomeNode(id, len(s.nodes))
	for k := 1; k < r; k++ {
		rn := s.nodes[(home+k)%len(s.nodes)]
		// corrupt flags only the home-disk copy; replicas are clean.
		if !rn.down && rn.disk.HasReplica(id) {
			return rn, true
		}
	}
	return nil, false
}

// restorable reports whether the block can be brought back without
// lineage recomputation: a usable local disk copy or a surviving
// replica. The manager's prefetch phase sees this via ClusterOps, so
// after a crash MRD proactively re-warms the replacement node from
// replicas.
func (s *Simulation) restorable(n *node, id block.ID) bool {
	if s.diskHas(n, id) {
		return true
	}
	_, ok := s.findReplica(id)
	return ok
}

// fetchWithRetry models one remote block fetch under the schedule's
// failure rate: each attempt charges the transfer to the reader's NIC;
// failed attempts add exponential backoff (simulated time, holding the
// task slot) and retry up to the budget. It returns false when the
// budget is exhausted — the caller escalates to lineage recomputation.
// node is the reading node, for event attribution; every fetch emits a
// remote-fetch event whose value is the modeled service latency (wire
// time for all attempts plus accumulated backoff).
func (s *Simulation) fetchWithRetry(node int, w *taskWork, bytes int64) bool {
	wireUs := bytes * 1_000_000 / s.cfg.NetBytesPerSec
	f := s.opts.Fault
	if f == nil || f.FetchFailureRate == 0 {
		w.netBytes += bytes
		s.bus.Emit(obs.Ev(obs.KindRemoteFetch, node).
			WithBytes(bytes).WithValue(wireUs).WithVerdict("ok"))
		return true
	}
	backoff := f.Backoff()
	retries := f.Retries()
	latency := int64(0)
	for attempt := 0; ; attempt++ {
		w.netBytes += bytes
		latency += wireUs
		if s.frng.Float64() >= f.FetchFailureRate {
			s.bus.Emit(obs.Ev(obs.KindRemoteFetch, node).
				WithBytes(bytes).WithValue(latency).WithVerdict("ok"))
			return true
		}
		if attempt >= retries {
			s.bus.Emit(obs.Ev(obs.KindFetchGiveUp, node))
			s.bus.Emit(obs.Ev(obs.KindRemoteFetch, node).
				WithBytes(bytes).WithValue(latency).WithVerdict("giveup"))
			return false
		}
		delay := backoff << attempt
		w.computeUs += delay
		latency += delay
		s.bus.Emit(obs.Ev(obs.KindFetchRetry, node).WithValue(delay))
	}
}

// noteUnfiredFaults validates the schedule against what actually ran:
// an event whose stage index lies at or beyond the executed stage
// count never fired, and a run that silently reported healthy numbers
// as if it were a fault run is exactly the bug this warning surfaces.
func (s *Simulation) noteUnfiredFaults() {
	if s.opts.Fault == nil {
		return
	}
	var unfired []string
	for _, ev := range s.opts.Fault.Events {
		if ev.Stage >= s.stageIx {
			unfired = append(unfired, ev.String())
		}
	}
	if len(unfired) > 0 {
		s.run.FaultWarning = fmt.Sprintf(
			"fault schedule events never fired (only %d stages executed): %s",
			s.stageIx, strings.Join(unfired, ", "))
	}
}
