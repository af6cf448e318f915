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
	s.bus.Emit(obs.BlockEv(obs.KindPrefetchIssue, node, info.ID, info.Size))
	r := s.newPrefetch()
	r.n, r.info, r.replica = n, info, !s.diskHas(n, info.ID)
	src := n
	if r.replica {
		// Replica restore: read the surviving copy's disk, cross the NIC,
		// land in the home node's memory (and disk, for later promotes).
		src, _ = s.findReplica(info.ID)
	}
	src.diskDev.Transfer(info.Size, Background, (*diskLeg)(r))
}

// prefetchReq is one issued prefetch in flight. Its two legs are its
// own handlers, and the records come from a slab the run owns, to which
// a landed prefetch returns its record, so issuing and landing a
// prefetch allocates nothing once the slab holds the run's peak.
type prefetchReq struct {
	s    *Simulation
	n    *node // the home node the block lands on
	info block.Info
	// replica marks a restore from another node's replica copy.
	replica bool
	next    *prefetchReq // on the run's free list
}

// diskLeg and netLeg are a prefetch record as the handler of its disk
// read and of its NIC crossing.
type (
	diskLeg prefetchReq
	netLeg  prefetchReq
)

// pfChunk is the size of the run's first slab of prefetch records;
// each later one is as large as all before it.
const pfChunk = 32

// newPrefetch takes a record from the run's free list, or carves one
// from its slab.
func (s *Simulation) newPrefetch() *prefetchReq {
	if r := s.pfFree; r != nil {
		s.pfFree = r.next
		return r
	}
	if len(s.pfSlab) == 0 {
		s.pfSlab = make([]prefetchReq, max(pfChunk, s.pfMade))
		s.pfMade += len(s.pfSlab)
	}
	r := &s.pfSlab[0]
	s.pfSlab = s.pfSlab[1:]
	r.s = s
	return r
}

// fire ends the disk read: a local copy arrives, a replica's bytes go
// on to cross the home node's NIC.
func (l *diskLeg) fire() {
	r := (*prefetchReq)(l)
	r.s.run.DiskReadBytes += r.info.Size
	if !r.replica {
		r.arrive()
		return
	}
	r.n.netDev.Transfer(r.info.Size, Background, (*netLeg)(r))
}

// fire ends a replica restore's network leg: the block lands on the
// home node's disk too, for later promotes.
func (l *netLeg) fire() {
	r := (*prefetchReq)(l)
	r.s.run.NetReadBytes += r.info.Size
	if !r.n.down {
		r.n.disk.Put(r.info.ID, r.info.Size)
	}
	r.arrive()
}

// arrive lands the block in the home node's memory and returns the
// record to the run's free list.
func (r *prefetchReq) arrive() {
	s, n, info := r.s, r.n, r.info
	r.next, s.pfFree = s.pfFree, r
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
	s.bus.Emit(obs.BlockEv(obs.KindPrefetchArrive, n.id, info.ID, info.Size).WithVerdict(why))
	s.noteEvictions(evicted)
	s.noteUsed(n)
	if why != "" {
		s.aborted++
		return
	}
	s.replicate(n, info)
}
