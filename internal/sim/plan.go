package sim

import (
	"slices"

	"mrdspark/internal/cluster"
	"mrdspark/internal/dag"
	"mrdspark/internal/obs"
)

// planStage turns a stage into per-task work units. Planning resolves
// every cached-RDD read the stage performs against the current cache
// state (hit, promote-from-disk, or recompute-from-lineage), charges
// the resulting I/O and compute to the task that reads each block, and
// schedules the cache inserts the tasks will perform when they finish.
//
// Block placement: partition q of any RDD lives on node q mod N (tasks
// are placed the same way, so creation is always local). A stage whose
// task count differs from a read RDD's partition count reads some
// blocks remotely; remote reads are charged to the reader's NIC.
func (s *Simulation) planStage(st *dag.Stage) []taskWork {
	if len(s.works) < st.NumTasks {
		s.works = append(s.works, make([]taskWork, st.NumTasks-len(s.works))...)
	}
	works := s.works[:st.NumTasks]
	for p := range works {
		works[p] = taskWork{inserts: works[p].inserts[:0]}
	}
	s.resolved.Clear()
	ctx := &planCtx{sim: s, works: works, numTasks: st.NumTasks}

	// One walk from the target: what lies short of a read boundary is
	// the pipelined chain each task computes — its cached members are
	// created, inserted in walk order — and the boundaries reached are
	// the stage's read frontier, the nearest materialized cached RDD on
	// each narrow path.
	var computeUs, srcBytes, shufLocal, shufRemote int64
	var reads, creations []*dag.RDD
	s.created.Walk(st, func(r *dag.RDD) { reads = append(reads, r) }, func(m *dag.RDD) {
		computeUs += m.CostPerPart
		if m.IsSource() {
			srcBytes += m.PartSize
		}
		for _, d := range m.Deps {
			if d.Type != dag.Shuffle {
				continue
			}
			per := d.Parent.Size() / int64(st.NumTasks)
			n := int64(len(s.nodes))
			shufRemote += per * (n - 1) / n
			shufLocal += per - per*(n-1)/n
		}
		if m.Cached {
			creations = append(creations, m)
		}
	})
	slices.SortFunc(reads, func(a, b *dag.RDD) int { return a.ID - b.ID })
	for _, r := range reads {
		for q := 0; q < r.NumPartitions; q++ {
			ctx.resolveBlock(r, q)
		}
	}
	s.run.StageInputBytes += (srcBytes + shufLocal + shufRemote) * int64(st.NumTasks)
	s.run.ShuffleReadBytes += (shufLocal + shufRemote) * int64(st.NumTasks)
	for p := range works {
		w := &works[p]
		w.computeUs += computeUs
		w.diskBytes += srcBytes + shufLocal
		// The task's remote shuffle read crosses the network and is
		// subject to the fault schedule's fetch-failure model; an
		// exhausted retry budget is Spark's shuffle-fetch failure —
		// the missing map outputs are regenerated, charged here as
		// local recomputation I/O.
		if shufRemote > 0 && !s.fetchWithRetry(s.execNode(p).id, w, shufRemote) {
			s.run.RecomputeBytes += shufRemote
			w.diskBytes += shufRemote
		}
		if st.Kind == dag.ShuffleMap {
			w.shuffleWrite = st.Target.PartSize
			s.run.ShuffleWriteBytes += w.shuffleWrite
		}
		for _, m := range creations {
			q := p % m.NumPartitions
			w.inserts = append(w.inserts, insert{node: cluster.HomePartition(q, len(s.nodes)), info: m.BlockInfo(q)})
		}
	}
	// Mark chain creations materialized: from the next stage on they
	// are read boundaries.
	for _, m := range creations {
		s.created.Mark(m.ID)
	}
	return works
}

// planCtx carries per-stage planning state. Which blocks were already
// resolved (a block is read once per stage even if reachable through
// several chain paths) is the simulation's resolved set, cleared per
// stage.
type planCtx struct {
	sim      *Simulation
	works    []taskWork
	numTasks int
}

// resolveBlock resolves one read of a cached block down the recovery
// ladder: cache hit (free locally, a fetch remotely), promote from the
// home node's disk, re-fetch from a surviving replica, and finally
// recompute from lineage. Remote fetches on every rung are subject to
// the fault schedule's failure rate with bounded retry; an exhausted
// budget drops to the next rung. Costs are charged to the reader task
// q mod numTasks; the block's home is node q mod N.
func (c *planCtx) resolveBlock(r *dag.RDD, q int) {
	id := r.Block(q)
	s := c.sim
	if s.resolved.Has(id) {
		return
	}
	s.resolved.Put(id, struct{}{})

	home := cluster.HomeNode(id, len(s.nodes))
	hn := s.nodes[home]
	reader := q % c.numTasks
	readerNode := s.execNode(reader).id
	w := &c.works[reader]
	// deserUs: reading spilled or replicated bytes back costs CPU too;
	// Spark deserializes disk bytes into JVM objects (~150 MB/s).
	deserUs := r.PartSize * 1_000_000 / (150 << 20)

	s.run.StageInputBytes += r.PartSize
	used := hn.mem.Prefetch.Used
	if hn.mem.Get(id) {
		s.run.Hits++
		s.bus.Emit(obs.BlockEv(obs.KindHit, home, id, r.PartSize).Settling(hn.mem.Prefetch.Used != used))
		// A remote hit still moves bytes over the reader's NIC — and
		// under a flaky network that fetch can exhaust its retries, in
		// which case the reader rebuilds the partition locally from
		// lineage (the cached copy stays resident at home).
		if home != readerNode && !s.fetchWithRetry(readerNode, w, r.PartSize) {
			s.run.RecomputeBytes += r.PartSize
			s.bus.Emit(obs.BlockEv(obs.KindRecompute, readerNode, id, r.PartSize))
			c.chainCost(r, q, w)
		}
		return
	}
	s.run.Misses++
	s.bus.Emit(obs.BlockEv(obs.KindMiss, home, id, r.PartSize))

	// A corrupt home-disk copy is detected at this read and dropped,
	// pushing the miss down to the replica or lineage rung.
	if hn.disk.Has(id) && s.corrupt.Delete(id) {
		hn.disk.Remove(id)
		s.run.BlocksCorrupted++
		s.bus.Emit(obs.BlockEv(obs.KindCorruptDetect, home, id, r.PartSize))
	}

	if s.diskHas(hn, id) {
		fetched := true
		if home == readerNode {
			w.diskBytes += r.PartSize
		} else {
			fetched = s.fetchWithRetry(readerNode, w, r.PartSize)
		}
		if fetched {
			s.run.DiskPromotes++
			s.bus.Emit(obs.BlockEv(obs.KindPromote, home, id, r.PartSize))
			w.computeUs += deserUs
			w.inserts = append(w.inserts, insert{node: home, info: r.BlockInfo(q)})
			return
		}
	}

	// Primary copies gone (eviction, node failure, injected loss):
	// before paying for lineage, try a surviving replica.
	if rn, ok := s.findReplica(id); ok {
		fetched := true
		if rn.id == readerNode {
			w.diskBytes += r.PartSize
		} else {
			fetched = s.fetchWithRetry(readerNode, w, r.PartSize)
		}
		if fetched {
			s.run.ReplicaHits++
			s.bus.Emit(obs.BlockEv(obs.KindReplicaHit, rn.id, id, r.PartSize))
			w.computeUs += deserUs
			w.inserts = append(w.inserts, insert{node: home, info: r.BlockInfo(q)})
			return
		}
	}

	// Last rung: recompute from lineage, then re-cache.
	s.run.Recomputes++
	s.run.RecomputeBytes += r.PartSize
	s.bus.Emit(obs.BlockEv(obs.KindRecompute, home, id, r.PartSize))
	c.chainCost(r, q, w)
	w.inserts = append(w.inserts, insert{node: home, info: r.BlockInfo(q)})
}

// chainCost charges the work to recompute one partition of r from its
// lineage: compute costs up the narrow chain, source re-reads, shuffle
// re-reads (shuffle outputs stay materialized on disk for the whole
// application), and reads of materialized cached ancestors.
func (c *planCtx) chainCost(r *dag.RDD, q int, w *taskWork) {
	s := c.sim
	w.computeUs += r.CostPerPart
	if r.IsSource() {
		w.diskBytes += r.PartSize
		return
	}
	for _, d := range r.Deps {
		if d.Type == dag.Shuffle {
			per := d.Parent.Size() / int64(r.NumPartitions)
			n := int64(len(s.nodes))
			remote := per * (n - 1) / n
			w.netBytes += remote
			w.diskBytes += per - remote
			continue
		}
		p := d.Parent
		pq := q % p.NumPartitions
		if s.created.Boundary(p) {
			c.resolveBlock(p, pq)
			continue
		}
		c.chainCost(p, pq, w)
	}
}
