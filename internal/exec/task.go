package exec

import (
	"slices"
	"time"

	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
	"mrdspark/internal/dag"
)

// blockKey memoizes one (RDD, partition) evaluation inside a task.
type blockKey struct{ rdd, part int }

// taskCtx is one worker goroutine's evaluation state, reset at the
// start of every task attempt: everything in it has task lifetime. The
// memo's slices point into the arena; buckets is gather's scratch, used
// as a stack because a lineage recompute re-enters gather mid-loop;
// rowBucket is newMapOutput's, grown to the largest map output so far;
// tally collects the task's data-plane counts, flushed once at its end.
type taskCtx struct {
	worker    int
	memo      map[blockKey][]Row
	arena     arena
	buckets   [][]Row
	rowBucket []int32
	tally     tally
}

func newTaskCtx(worker int) *taskCtx {
	return &taskCtx{worker: worker, memo: map[blockKey][]Row{}}
}

// runShare runs one worker's share of the stage in task order. A result
// stage's partitions are digested lanes at a time (digestLanes): each
// waits in the arena's kept rows while the next tasks are evaluated,
// until the last of the group arrives — or the kept rows are full, or
// the share ends — and the group is digested. The digest's time goes to
// the task whose rows came last.
func (e *Engine) runShare(t *taskCtx, s *dag.Stage, digests []uint64, durs []int64) {
	var held [lanes][]Row
	var parts [lanes]int
	n := 0
	flush := func() {
		t0 := time.Now()
		h := digestLanes(held)
		for i, part := range parts[:n] {
			digests[part] = h[i]
		}
		durs[parts[n-1]] += time.Since(t0).Microseconds()
		t.arena.release()
		held, n = [lanes][]Row{}, 0
	}
	for part := 0; part < s.NumTasks; part++ {
		if cluster.HomePartition(part, len(e.nodes)) != t.worker {
			continue
		}
		var rows []Row
		rows, durs[part] = e.runTask(t, s, part)
		if s.Kind != dag.Result {
			continue
		}
		if n < lanes-1 {
			if kept, ok := t.arena.keep(rows); ok {
				held[n], parts[n] = kept, part
				n++
				continue
			}
		}
		held[n], parts[n] = rows, part
		n++
		flush()
	}
	if n > 0 {
		flush()
	}
}

// runTask executes one task of the stage on its worker's goroutine:
// evaluate the target partition through the cached frontier and write
// shuffle output (map tasks) or hand the rows, which live until the
// arena's next reset, to the caller to digest (result tasks). If the
// worker dies under the task (mid-stage kill bumps its epoch), the task
// re-runs once — its recomputed output is byte-identical because every
// operator is a pure function.
func (e *Engine) runTask(t *taskCtx, s *dag.Stage, part int) (rows []Row, durUs int64) {
	t0 := time.Now()
	for attempt := 0; ; attempt++ {
		epoch := e.nodes[t.worker].curEpoch()
		clear(t.memo)
		t.arena.reset()
		rows = e.eval(t, s.Target, part)
		if s.Kind == dag.ShuffleMap {
			e.writeOutput(t, e.shuffles[s.ShuffleID], part, rows)
		}
		t.tally.tasksRun++
		if e.nodes[t.worker].curEpoch() == epoch || attempt >= 1 {
			break
		}
		t.tally.taskRetries++
	}
	e.ctr.flush(&t.tally)
	e.maybeFireMidKill()
	return rows, time.Since(t0).Microseconds()
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
		e.wipe(e.cfg.Kill.Worker)
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
	if e.adv.Created().Boundary(r) && !e.curCreates[r.ID] {
		rows = e.readCached(t, r, p)
	} else {
		rows = e.computeRows(t, r, p)
		if r.Cached && e.curCreates[r.ID] {
			e.materialize(t, r.BlockInfo(p), rows)
		}
	}
	t.memo[k] = rows
	return rows
}

// readCached reads a materialized cached block: the rows its home
// worker stores in memory, else on disk (promoting them into memory
// when the boundary decision re-admitted the block), else lineage
// recompute — the rows are gone (a killed worker, or a MEMORY_ONLY
// eviction), so the block is rebuilt from its lineage, once, however
// many tasks need it. Every way, the task gets the stored slice itself,
// which it must not write (see node). Only a read the home worker's
// memory or disk served from another worker is a remote fetch.
func (e *Engine) readCached(t *taskCtx, r *dag.RDD, p int) []Row {
	id := r.Block(p)
	home := e.home(id)
	rows, ok := home.loadMem(id)
	if !ok {
		if rows, ok = home.loadDisk(id); ok && e.adv.Resident(home.id, id) {
			home.storeMem(id, rows)
		}
	}
	if ok {
		if home.id != t.worker {
			t.tally.remoteFetches++
		}
		return rows
	}
	rows, ran := e.flights.do(id, func() []Row {
		return e.materialize(t, r.BlockInfo(p), e.computeRows(t, r, p))
	})
	if ran {
		t.tally.lineageRecomputes++
	}
	return rows
}

// materialize stores a copy of a computed cached block's rows where the
// accounting says the block lives: memory if resident, disk if the
// boundary spilled it before any task produced it, nowhere otherwise
// (the accounting refused or already dropped it — the next read
// recomputes). It returns the copy: its own allocation, with block
// lifetime, clipped like an arena allocation so an append copies out.
func (e *Engine) materialize(t *taskCtx, info block.Info, rows []Row) []Row {
	home := e.home(info.ID)
	b := slices.Clip(slices.Clone(rows))
	if e.adv.Resident(home.id, info.ID) {
		home.storeMem(info.ID, b)
	} else if e.adv.OnDisk(home.id, info.ID) && home.storeDisk(info.ID, b) {
		t.tally.spills++
		t.tally.spillBytes += int64(len(b)) * rowBytes
	}
	return b
}

// computeRows computes partition p of r from its inputs: generated
// source data, gathered shuffle buckets, or narrow parents.
func (e *Engine) computeRows(t *taskCtx, r *dag.RDD, p int) []Row {
	if r.IsSource() {
		return genInto(t.arena.alloc(e.rows), e.seed, r.ID, p, e.skew)
	}
	if r.Deps[0].Type == dag.Shuffle {
		return e.computeWide(t, r, p)
	}
	return e.computeNarrow(t, r, p)
}

// computeNarrow evaluates the narrow operators: unions pass a parent
// partition through, zips concatenate partition-wise, and the map
// family transforms its parents' range of partitions. A single parent
// partition is read where the memo holds it, never copied.
func (e *Engine) computeNarrow(t *taskCtx, r *dag.RDD, p int) []Row {
	switch r.Op {
	case "union":
		di, pp := unionSlot(r.Deps, p)
		return e.eval(t, r.Deps[di].Parent, pp)
	case "zipPartitions":
		return e.concat(t, len(r.Deps), func(i int) (*dag.RDD, int) {
			return r.Deps[i].Parent, p % r.Deps[i].Parent.NumPartitions
		})
	default:
		parent := r.Deps[0].Parent
		lo, hi := narrowParents(parent.NumPartitions, r.NumPartitions, p)
		if hi-lo == 1 {
			return transformNarrow(&t.arena, r.Op, e.eval(t, parent, lo))
		}
		return transformNarrow(&t.arena, r.Op, e.concat(t, hi-lo, func(i int) (*dag.RDD, int) {
			return parent, lo + i
		}))
	}
}

// concat lays n evaluated partitions end to end in one arena
// allocation, sized once and copied once (each partition's second eval
// is a memo hit).
func (e *Engine) concat(t *taskCtx, n int, at func(i int) (*dag.RDD, int)) []Row {
	total := 0
	for i := 0; i < n; i++ {
		r, p := at(i)
		total += len(e.eval(t, r, p))
	}
	out := t.arena.alloc(total)[:0]
	for i := 0; i < n; i++ {
		r, p := at(i)
		out = append(out, e.eval(t, r, p)...)
	}
	return out
}

// transformNarrow applies the per-row transformation of one narrow
// operator, writing into the arena. Filters and samples keep
// deterministic subsets; the map family scrambles values and keeps keys
// (so joins downstream still align); flatMap doubles. Inputs are never
// mutated — memoized slices are shared across operators.
func transformNarrow(a *arena, op string, in []Row) []Row {
	switch op {
	case "filter":
		out, n := a.alloc(len(in)), 0
		for _, row := range in {
			if splitmix64(row.Key^row.Val)%10 < 7 {
				out[n] = row
				n++
			}
		}
		return a.trim(out, n)
	case "sample":
		out, n := a.alloc(len(in)), 0
		for _, row := range in {
			if splitmix64(row.Val^0xA5A5A5A5)%2 == 0 {
				out[n] = row
				n++
			}
		}
		return a.trim(out, n)
	case "flatMap":
		out := a.alloc(2 * len(in))
		for i, row := range in {
			out[2*i] = Row{Key: row.Key, Val: mixVal(row.Val)}
			out[2*i+1] = Row{Key: row.Key, Val: mixVal(row.Val + 1)}
		}
		return out
	default: // map, mapPartitions, mapValues, and anything map-shaped
		out := a.alloc(len(in))
		for i, row := range in {
			out[i] = Row{Key: row.Key, Val: mixVal(row.Val)}
		}
		return out
	}
}

// computeWide evaluates a shuffle operator's reduce side: gather the
// buckets every map task wrote for partition p, then aggregate, sort,
// dedup or join. Every result is key-sorted, so reduce outputs are
// independent of bucket arrival order. A gathered side is this
// operator's own arena allocation, so it is sorted — between itself and
// an arena scratch of its length — and compacted in place.
func (e *Engine) computeWide(t *taskCtx, r *dag.RDD, p int) []Row {
	var first, last []Row
	for i, d := range r.Deps {
		last = e.gather(t, d.ShuffleID, p)
		if i == 0 {
			first = last
		}
	}
	switch r.Op {
	case "join", "cogroup":
		return joinRows(&t.arena, first, last, r.Op == "join")
	case "reduceByKey", "aggregateByKey":
		return reduceRows(&t.arena, first)
	case "distinct":
		return distinctRows(&t.arena, first)
	default: // groupByKey, sortByKey, partitionBy
		return sortRows(&t.arena, first)
	}
}

// mapSideCombine is the fold a map task applies to its rows before it
// buckets them when op consumes the shuffle, as Spark's combineByKey
// does with mapSideCombine: the per-key sum where the reduce side sums
// (joinRows sums each side first), the dedup for distinct, and none for
// the operators that keep every row. Wrapping sums and dedups fold the
// same whether partly folded first or not, so only the shuffled volume
// moves.
func mapSideCombine(op string) func(*arena, []Row) []Row {
	switch op {
	case "reduceByKey", "aggregateByKey", "join", "cogroup":
		return reduceRows
	case "distinct":
		return distinctRows
	}
	return nil
}

// reduceRows sums values per key (wrapping uint64 addition is
// order-independent, so the result is deterministic regardless of
// gather order): sort by key, then fold equal neighbours over the front
// of in, which is dead once read — the fold writes in[n] no later than
// it reads row n, so it is safe whether the sorted rows ended in in or
// in the scratch. One key-sorted row per key comes out; the scratch,
// the latest allocation, goes back to the arena.
func reduceRows(mem *arena, in []Row) []Row {
	tmp := mem.alloc(len(in))
	n := 0
	for _, row := range radixByKey(in, tmp) {
		if n > 0 && in[n-1].Key == row.Key {
			in[n-1].Val += row.Val
		} else {
			in[n] = row
			n++
		}
	}
	mem.trim(tmp, 0)
	return in[:n:n]
}

// distinctRows keeps one of each (Key, Val) pair, in canonical order.
func distinctRows(mem *arena, in []Row) []Row {
	in = sortRows(mem, in)
	n := 0
	for _, row := range in {
		if n == 0 || row != in[n-1] {
			in[n] = row
			n++
		}
	}
	return in[:n:n]
}

// joinRows combines two shuffle sides per key: inner semantics for
// join (keys present on both sides), outer for cogroup (keys present
// on either). Each side is folded to one row per key, then one merge
// pass pairs them up, in key order.
func joinRows(mem *arena, a, b []Row, inner bool) []Row {
	a, b = reduceRows(mem, a), reduceRows(mem, b)
	out, n := mem.alloc(len(a)+len(b)), 0
	for len(a) > 0 || len(b) > 0 {
		var row Row
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].Key < b[0].Key:
			row, a = a[0], a[1:]
		case len(a) == 0 || b[0].Key < a[0].Key:
			row, b = b[0], b[1:]
		default:
			out[n] = Row{Key: a[0].Key, Val: mixVal(a[0].Val + b[0].Val)}
			n++
			a, b = a[1:], b[1:]
			continue
		}
		if !inner {
			out[n] = Row{Key: row.Key, Val: mixVal(row.Val)}
			n++
		}
	}
	return mem.trim(out, n)
}

// gather reads every map task's bucket for reduce partition p of the
// shuffle and copies them into one arena allocation — a copy, because
// the wide operators sort and fold their gathered side in place. It
// takes the shuffle's lock once, pushing each present bucket onto
// t.buckets above mark, and nil for a map output that is missing: the
// worker that wrote it died since the map stage ran. A missing output
// is recomputed in this task, which evaluates another stage's target
// and may gather, pushing above ours — so the buckets are a stack.
func (e *Engine) gather(t *taskCtx, sid, p int) []Row {
	si := e.shuffles[sid]
	mark := len(t.buckets)
	si.mu.Lock()
	for _, o := range si.out {
		var b []Row // a present output's bucket is never nil (see bucket)
		if o.off != nil {
			b = o.bucket(p)
		}
		t.buckets = append(t.buckets, b)
	}
	si.mu.Unlock()
	n := 0
	for m := range si.out {
		if t.buckets[mark+m] == nil {
			t.buckets[mark+m] = e.recomputeOutput(t, si, m).bucket(p)
		}
		n += len(t.buckets[mark+m])
		if cluster.HomePartition(m, len(e.nodes)) != t.worker {
			t.tally.remoteFetches++
		}
	}
	t.tally.shuffleBytes += int64(n) * rowBytes
	out := t.arena.alloc(n)
	at := 0
	for _, b := range t.buckets[mark:] {
		at += copy(out[at:], b)
	}
	t.buckets = t.buckets[:mark]
	return out
}

// recomputeOutput rebuilds map task m's lost output from lineage (once,
// via singleflight), rewrites it and returns it — Spark's FetchFailed →
// map-stage resubmission path, collapsed to the task that needs it.
func (e *Engine) recomputeOutput(t *taskCtx, si *shuffleInfo, m int) mapOutput {
	_, ran := e.flights.do(shuffleKey{sid: si.id, mapPart: m}, func() []Row {
		e.writeOutput(t, si, m, e.eval(t, si.mapStage.Target, m))
		return nil
	})
	if ran {
		t.tally.lineageRecomputes++
	}
	o, _ := si.get(m)
	return o
}

// writeOutput stores map task m's output rows, folded by the shuffle's
// combine and laid out by reduce partition, in the shuffle's table. The
// fold works on an arena copy: rows may be a stored block or a memo
// entry, which no operator writes.
func (e *Engine) writeOutput(t *taskCtx, si *shuffleInfo, m int, rows []Row) {
	if si.combine != nil {
		own := t.arena.alloc(len(rows))
		copy(own, rows)
		rows = si.combine(&t.arena, own)
	}
	t.rowBucket = slices.Grow(t.rowBucket[:0], len(rows))[:len(rows)]
	si.put(m, newMapOutput(rows, si.reduceParts, t.rowBucket))
}
