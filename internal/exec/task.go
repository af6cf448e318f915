package exec

import (
	"sort"
	"time"

	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
	"mrdspark/internal/dag"
)

// blockKey memoizes one (RDD, partition) evaluation inside a task.
type blockKey struct{ rdd, part int }

// taskCtx is one task attempt's evaluation state.
type taskCtx struct {
	worker int
	memo   map[blockKey][]Row
}

// runTask executes one task of the stage on a worker goroutine:
// evaluate the target partition through the cached frontier, write
// shuffle output (map tasks) or digest the result (result tasks). If
// the worker dies under the task (mid-stage kill bumps its epoch), the
// task re-runs once — its recomputed output is byte-identical because
// every operator is a pure function.
func (e *Engine) runTask(s *dag.Stage, part, workerID int) (digest uint64, durUs int64) {
	t0 := time.Now()
	for attempt := 0; ; attempt++ {
		epoch := e.nodes[workerID].curEpoch()
		t := &taskCtx{worker: workerID, memo: map[blockKey][]Row{}}
		rows := e.eval(t, s.Target, part)
		if s.Kind == dag.ShuffleMap {
			e.writeBuckets(e.shuffles[s.ShuffleID], part, rows)
		} else {
			digest = DigestRows(rows)
		}
		e.ctr.add(func(c *counters) { c.tasksRun++ })
		if e.nodes[workerID].curEpoch() == epoch || attempt >= 1 {
			break
		}
		e.ctr.add(func(c *counters) { c.taskRetries++ })
	}
	e.maybeFireMidKill()
	return digest, time.Since(t0).Microseconds()
}

// home returns the block's locality-preferred worker — the same single
// placement rule the simulator and the advisor use.
func (e *Engine) home(id block.ID) *node { return e.nodes[cluster.HomeNode(id, len(e.nodes))] }

// maybeFireMidKill pulls the mid-stage kill trigger: the first task of
// the kill stage to complete wipes the victim worker's byte plane. The
// accounting half is deferred to the next stage boundary (the master's
// "next heartbeat").
func (e *Engine) maybeFireMidKill() {
	ch := e.midArmed
	if ch == nil {
		return
	}
	select {
	case <-ch:
		e.nodes[e.cfg.Kill.Worker].wipeData()
		e.pendingFail = true
	default:
	}
}

// eval produces the rows of partition p of r, consulting the cache for
// materialized cached RDDs and materializing the ones the current
// stage creates — the engine's equivalent of Spark's RDD.iterator
// asking the BlockManager before computing.
func (e *Engine) eval(t *taskCtx, r *dag.RDD, p int) []Row {
	k := blockKey{r.ID, p}
	if rows, ok := t.memo[k]; ok {
		return rows
	}
	var rows []Row
	if r.Cached && e.adv.Materialized(r.ID) && !e.curCreates[r.ID] {
		rows = e.readCached(t, r, p)
	} else {
		rows = e.computeRows(t, r, p)
		if r.Cached && e.curCreates[r.ID] {
			e.materialize(r.BlockInfo(p), rows)
		}
	}
	t.memo[k] = rows
	return rows
}

// readCached reads a materialized cached block: memory bytes, else
// disk bytes (promoting them into memory when the boundary decision
// re-admitted the block), else lineage recompute — the bytes are gone
// (a killed worker, or a MEMORY_ONLY eviction), so the block is
// rebuilt from its lineage, once, however many tasks need it.
func (e *Engine) readCached(t *taskCtx, r *dag.RDD, p int) []Row {
	id := r.Block(p)
	home := e.home(id)
	if home.id != t.worker {
		e.ctr.add(func(c *counters) { c.remoteFetches++ })
	}
	if b, ok := home.loadMem(id); ok {
		rows, _ := DecodeRows(b)
		return rows
	}
	if b, ok := home.loadDisk(id); ok {
		if e.adv.Resident(home.id, id) {
			home.storeMem(id, b)
		}
		rows, _ := DecodeRows(b)
		return rows
	}
	rows, ran := e.flights.do(id, func() []Row { return e.computeRows(t, r, p) })
	if ran {
		e.ctr.add(func(c *counters) { c.lineageRecomputes++ })
		e.materialize(r.BlockInfo(p), rows)
	}
	return rows
}

// materialize lands a computed cached block's bytes where the
// accounting says the block lives: memory if resident, disk if the
// boundary spilled it before any task produced it, nowhere otherwise
// (the accounting refused or already dropped it — the next read
// recomputes).
func (e *Engine) materialize(info block.Info, rows []Row) {
	home := e.home(info.ID)
	b := EncodeRows(rows)
	if e.adv.Resident(home.id, info.ID) {
		home.storeMem(info.ID, b)
		return
	}
	if e.adv.OnDisk(home.id, info.ID) {
		if home.storeDisk(info.ID, b) {
			e.ctr.add(func(c *counters) { c.spills++; c.spillBytes += int64(len(b)) })
		}
	}
}

// computeRows computes partition p of r from its inputs: generated
// source data, gathered shuffle buckets, or narrow parents.
func (e *Engine) computeRows(t *taskCtx, r *dag.RDD, p int) []Row {
	if r.IsSource() {
		return GenPartition(e.seed, r.ID, p, e.rows, e.skew)
	}
	if r.Deps[0].Type == dag.Shuffle {
		return e.computeWide(t, r, p)
	}
	return e.computeNarrow(t, r, p)
}

// computeNarrow evaluates the narrow operators: unions concatenate,
// zips interleave partition-wise, and the map family transforms its
// parents' range of partitions.
func (e *Engine) computeNarrow(t *taskCtx, r *dag.RDD, p int) []Row {
	switch r.Op {
	case "union":
		di, pp := unionSlot(r.Deps, p)
		in := e.eval(t, r.Deps[di].Parent, pp)
		out := make([]Row, len(in))
		copy(out, in)
		return out
	case "zipPartitions":
		var out []Row
		for _, d := range r.Deps {
			out = append(out, e.eval(t, d.Parent, p%d.Parent.NumPartitions)...)
		}
		return out
	default:
		parent := r.Deps[0].Parent
		var in []Row
		for _, q := range narrowParents(parent.NumPartitions, r.NumPartitions, p) {
			in = append(in, e.eval(t, parent, q)...)
		}
		return transformNarrow(r.Op, in)
	}
}

// transformNarrow applies the per-row transformation of one narrow
// operator. Filters and samples keep deterministic subsets; the map
// family scrambles values and keeps keys (so joins downstream still
// align); flatMap doubles. Inputs are never mutated — memoized slices
// are shared across operators.
func transformNarrow(op string, in []Row) []Row {
	switch op {
	case "filter":
		out := make([]Row, 0, len(in))
		for _, row := range in {
			if splitmix64(row.Key^row.Val)%10 < 7 {
				out = append(out, row)
			}
		}
		return out
	case "sample":
		out := make([]Row, 0, len(in)/2)
		for _, row := range in {
			if splitmix64(row.Val^0xA5A5A5A5)%2 == 0 {
				out = append(out, row)
			}
		}
		return out
	case "flatMap":
		out := make([]Row, 0, 2*len(in))
		for _, row := range in {
			out = append(out, Row{Key: row.Key, Val: mixVal(row.Val)}, Row{Key: row.Key, Val: mixVal(row.Val + 1)})
		}
		return out
	default: // map, mapPartitions, mapValues, and anything map-shaped
		out := make([]Row, len(in))
		for i, row := range in {
			out[i] = Row{Key: row.Key, Val: mixVal(row.Val)}
		}
		return out
	}
}

// computeWide evaluates a shuffle operator's reduce side: gather the
// buckets every map task wrote for partition p, then aggregate, sort,
// dedup or join. Every result is key-sorted, so reduce outputs are
// independent of bucket arrival order.
func (e *Engine) computeWide(t *taskCtx, r *dag.RDD, p int) []Row {
	sides := make([][]Row, len(r.Deps))
	for i, d := range r.Deps {
		sides[i] = e.gather(t, d.ShuffleID, p)
	}
	switch r.Op {
	case "join":
		return joinRows(sides[0], sides[len(sides)-1], true)
	case "cogroup":
		return joinRows(sides[0], sides[len(sides)-1], false)
	case "reduceByKey", "aggregateByKey":
		return reduceRows(sides[0])
	case "distinct":
		sortRows(sides[0])
		out := sides[0][:0:0]
		for i, row := range sides[0] {
			if i == 0 || row != sides[0][i-1] {
				out = append(out, row)
			}
		}
		return out
	default: // groupByKey, sortByKey, partitionBy
		sortRows(sides[0])
		return sides[0]
	}
}

// reduceRows sums values per key (wrapping uint64 addition is
// order-independent, so the result is deterministic regardless of
// gather order), emitting one key-sorted row per key.
func reduceRows(in []Row) []Row {
	sums := map[uint64]uint64{}
	for _, row := range in {
		sums[row.Key] += row.Val
	}
	out := make([]Row, 0, len(sums))
	for k, v := range sums {
		out = append(out, Row{Key: k, Val: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// joinRows combines two shuffle sides per key: inner semantics for
// join (keys present on both sides), outer for cogroup (keys present
// on either).
func joinRows(a, b []Row, inner bool) []Row {
	as := map[uint64]uint64{}
	for _, row := range a {
		as[row.Key] += row.Val
	}
	bs := map[uint64]uint64{}
	for _, row := range b {
		bs[row.Key] += row.Val
	}
	var out []Row
	for k, av := range as {
		bv, ok := bs[k]
		if inner && !ok {
			continue
		}
		out = append(out, Row{Key: k, Val: mixVal(av + bv)})
	}
	if !inner {
		for k, bv := range bs {
			if _, ok := as[k]; !ok {
				out = append(out, Row{Key: k, Val: mixVal(bv)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// gather fetches and decodes every map task's bucket for reduce
// partition p of the shuffle.
func (e *Engine) gather(t *taskCtx, sid, p int) []Row {
	si := e.shuffles[sid]
	var out []Row
	for m := 0; m < si.mapParts; m++ {
		rows, _ := DecodeRows(e.fetchBucket(t, si, m, p))
		out = append(out, rows...)
	}
	return out
}

// fetchBucket reads one shuffle bucket from the worker that ran map
// task m. A missing bucket means that worker died since the map stage
// ran: the map task is recomputed from lineage (once, via
// singleflight) and its whole bucket row rewritten, then the read
// retries — Spark's FetchFailed → map-stage resubmission path,
// collapsed to the task that needs it.
func (e *Engine) fetchBucket(t *taskCtx, si *shuffleInfo, m, p int) []byte {
	w := e.nodes[cluster.HomePartition(m, len(e.nodes))]
	k := shuffleKey{sid: si.id, mapPart: m, reducePart: p}
	b, ok := w.getBucket(k)
	if !ok {
		_, ran := e.flights.do(mapFlightKey{sid: si.id, mapPart: m}, func() []Row {
			rows := e.eval(t, si.mapStage.Target, m)
			e.writeBuckets(si, m, rows)
			return nil
		})
		if ran {
			e.ctr.add(func(c *counters) { c.lineageRecomputes++ })
		}
		b, _ = w.getBucket(k)
	}
	e.ctr.add(func(c *counters) {
		c.shuffleBytes += int64(len(b))
		if w.id != t.worker {
			c.remoteFetches++
		}
	})
	return b
}

// writeBuckets partitions map task m's output rows by key hash and
// stores one encoded bucket per reduce partition in the map worker's
// shuffle store. Buckets are written even when empty, so a reducer can
// distinguish "no rows for you" from "output lost with its worker".
func (e *Engine) writeBuckets(si *shuffleInfo, m int, rows []Row) {
	buckets := make([][]Row, si.reduceParts)
	for _, row := range rows {
		q := bucketOf(row.Key, si.reduceParts)
		buckets[q] = append(buckets[q], row)
	}
	w := e.nodes[cluster.HomePartition(m, len(e.nodes))]
	for q, rs := range buckets {
		w.putBucket(shuffleKey{sid: si.id, mapPart: m, reducePart: q}, EncodeRows(rs))
	}
}
