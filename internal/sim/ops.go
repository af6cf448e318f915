package sim

import (
	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
	"mrdspark/internal/obs"
	"mrdspark/internal/policy"
)

// clusterOps is the policy.ClusterOps control surface over a running
// simulation — the channel through which the MRDmanager (and MemTune)
// issue purge orders and prefetch requests to the worker nodes.
type clusterOps struct {
	s *Simulation
}

var _ policy.ClusterOps = clusterOps{}

func (o clusterOps) NumNodes() int { return len(o.s.nodes) }

func (o clusterOps) HomeNode(id block.ID) int { return cluster.HomeNode(id, len(o.s.nodes)) }

func (o clusterOps) Resident(node int, id block.ID) bool {
	return o.s.nodes[node].mem.Contains(id)
}

// OnDisk reports restorability without recomputation: a usable local
// disk copy or, under replication, a surviving replica elsewhere. The
// manager's prefetch phase therefore re-warms a crashed-and-replaced
// node from replicas instead of writing the block off.
func (o clusterOps) OnDisk(node int, id block.ID) bool {
	return o.s.restorable(o.s.nodes[node], id)
}

func (o clusterOps) FreeBytes(node int) int64 { return o.s.nodes[node].mem.Free() }

func (o clusterOps) PrefetchOutcomes() (used, wasted int64) {
	_, used, wasted = o.s.prefetchTotals()
	return
}

func (o clusterOps) CapacityBytes(node int) int64 { return o.s.nodes[node].mem.Capacity() }

// Evict implements the manager-initiated proactive eviction (purge).
func (o clusterOps) Evict(node int, id block.ID) bool {
	s := o.s
	info, ok := s.nodes[node].mem.Remove(id)
	if !ok {
		return false
	}
	s.noteUsed(s.nodes[node])
	s.run.PurgedBlocks++
	s.bus.Emit(obs.BlockEv(obs.KindPurge, node, id, 0).Settling(info.Unread))
	return true
}

// Prefetch loads the block at background priority — from the node's
// local disk, or from a surviving replica when the local copy is gone
// (a crashed-and-replaced node re-warming) — and inserts it into
// memory on arrival, evicting via the node's policy if space is
// needed then.
func (o clusterOps) Prefetch(node int, info block.Info) {
	s := o.s
	n := s.nodes[node]
	if n.down || n.mem.Contains(info.ID) || s.inFlight.Has(info.ID) || !s.restorable(n, info.ID) {
		return
	}
	s.inFlight.Put(info.ID, struct{}{})
	s.run.PrefetchIssued++
	s.bus.Emit(obs.BlockEv(obs.KindPrefetchIssue, node, info.ID, info.Size))
	arrive := func() {
		s.inFlight.Delete(info.ID)
		// An arrival no store takes is aborted — wasted without entering
		// a store's ledger — and its event says why: the node crashed
		// mid-flight, the block was demand-inserted meanwhile, or the
		// store refused it.
		var why string
		var evicted []block.Info
		switch {
		case n.down:
			why = obs.VerdictDown
		case n.mem.Contains(info.ID):
			why = obs.VerdictResident
		default:
			var ok bool
			if evicted, ok = n.mem.PutPrefetch(info); !ok {
				why = obs.VerdictRefused
			}
		}
		s.bus.Emit(obs.BlockEv(obs.KindPrefetchArrive, node, info.ID, info.Size).WithVerdict(why))
		s.noteEvictions(evicted)
		s.noteUsed(n)
		if why != "" {
			s.aborted++
			return
		}
		s.replicate(n, info)
	}
	if s.diskHas(n, info.ID) {
		n.diskDev.Transfer(info.Size, Background, func() {
			s.run.DiskReadBytes += info.Size
			arrive()
		})
		return
	}
	// Replica restore: read the surviving copy's disk, cross the NIC,
	// land in the home node's memory (and disk, for later promotes).
	rn, _ := s.findReplica(info.ID)
	rn.diskDev.Transfer(info.Size, Background, func() {
		s.run.DiskReadBytes += info.Size
		n.netDev.Transfer(info.Size, Background, func() {
			s.run.NetReadBytes += info.Size
			if !n.down {
				n.disk.Put(info.ID, info.Size)
			}
			arrive()
		})
	})
}
