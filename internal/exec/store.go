package exec

import (
	"sync"

	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
)

// shuffleKey addresses one map task's output — the flight that
// recomputes it when lost.
type shuffleKey struct{ sid, mapPart int }

// mapOutput is everything one map task wrote for one shuffle, with
// run lifetime: a single slab of rows grouped by reduce partition, and
// the row offset each group starts at. Reducer q's bucket is a
// sub-slice of the slab; "no rows for you" is an empty range, while
// "not written, or lost with its worker" is the zero mapOutput (off ==
// nil) — so a map output is present whole or not at all.
type mapOutput struct {
	slab []Row
	off  []int32 // reduceParts+1 row offsets into slab
}

// newMapOutput lays rows out by bucketOf(key) with a two-pass counting
// sort, which keeps each bucket in input order. The counting pass notes
// each row's bucket in bucket, a scratch as long as rows, so the scatter
// pass does not hash and divide a second time.
func newMapOutput(rows []Row, reduceParts int, bucket []int32) mapOutput {
	off := make([]int32, reduceParts+1)
	for i, r := range rows {
		q := int32(bucketOf(r.Key, reduceParts))
		bucket[i] = q
		off[q+1]++
	}
	for q := 0; q < reduceParts; q++ {
		off[q+1] += off[q]
	}
	slab := make([]Row, len(rows))
	for i, r := range rows {
		q := bucket[i]
		slab[off[q]] = r
		off[q]++
	}
	// Each cursor now sits at its bucket's end: the next one's start.
	copy(off[1:], off)
	off[0] = 0
	return mapOutput{slab, off}
}

// bucket is reducer q's rows. The slab is never nil (make of zero rows
// is not), so neither is a present output's bucket, empty or not.
func (o mapOutput) bucket(q int) []Row { return o.slab[o.off[q]:o.off[q+1]] }

// put stores map task m's output unless one is there already: first
// write wins, as for blocks, so a recompute racing the original cannot
// swap the rows under a reader.
func (si *shuffleInfo) put(m int, o mapOutput) {
	si.mu.Lock()
	defer si.mu.Unlock()
	if si.out[m].off == nil {
		si.out[m] = o
	}
}

// get returns map task m's output, or false when it is not written or
// was lost with its worker.
func (si *shuffleInfo) get(m int) (mapOutput, bool) {
	si.mu.Lock()
	defer si.mu.Unlock()
	return si.out[m], si.out[m].off != nil
}

// wipe is a worker kill's data half: the worker's cached and spilled
// rows, and every map output it served, are gone, and its epoch moves
// on. The accounting half (Advisor.OnNodeFailure) is applied by the
// master, at the next stage boundary for mid-stage kills. Readers that
// already hold a bucket or a block keep reading it: nothing stored is
// ever written, only forgotten.
func (e *Engine) wipe(w int) {
	e.nodes[w].wipe()
	for _, si := range e.shuffles {
		si.mu.Lock()
		for m := range si.out {
			if cluster.HomePartition(m, len(e.nodes)) == w {
				si.out[m] = mapOutput{}
			}
		}
		si.mu.Unlock()
	}
}

// node is one worker's block store: memBytes and diskBytes hold cached
// blocks as the rows themselves, read and written by worker goroutines
// under the node's mutex. A block is stored once, as its own
// allocation, and every read hands out that slice: no operator writes
// into its input (the wide operators write only into the side they
// gathered, which is a copy), so a stored block is never written after
// materialize and any number of tasks may read it at once.
// TestStoredBlocksEqualTheirLineage holds the engine to that rule.
// Cached rows have block lifetime (the accounting's Spill/Drop releases
// them, a kill ends it early). Map outputs are not here but in their
// shuffle's table (shuffleInfo), and a task's own rows live in its arena.
// The accounting plane — which block is resident where — lives in the
// engine's Advisor, is mutated only at stage boundaries on the master,
// and is read by workers through Advisor.Resident/OnDisk. The
// accounting stores hold no lock: the master mutates them only between
// task waves, and the dispatch channels that start a wave and collect
// its results order every worker read after the boundary's last write
// and before the next one's first. Accounting leads, rows follow: a
// block's rows are stored where the accounting says it is resident, and
// a lookup that comes up empty (worker killed, or a MEMORY_ONLY
// eviction dropped the rows) falls back to lineage recompute.
type node struct {
	id int

	mu        sync.Mutex
	memBytes  map[block.ID][]Row
	diskBytes map[block.ID][]Row
	// epoch counts kill wipes. A task that observes a different epoch
	// at completion than at start ran over a dying worker and re-runs.
	epoch int
}

func newNode(id int) *node {
	return &node{
		id:        id,
		memBytes:  map[block.ID][]Row{},
		diskBytes: map[block.ID][]Row{},
	}
}

func (n *node) loadMem(id block.ID) ([]Row, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	b, ok := n.memBytes[id]
	return b, ok
}

func (n *node) loadDisk(id block.ID) ([]Row, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	b, ok := n.diskBytes[id]
	return b, ok
}

// storeMem stores the block's rows in memory, reporting whether this
// call was the first to store them (concurrent tasks materializing the
// same block are deduplicated so data-plane counters stay
// deterministic).
func (n *node) storeMem(id block.ID, b []Row) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.memBytes[id]; ok {
		return false
	}
	n.memBytes[id] = b
	return true
}

// storeDisk stores the block's rows on disk (first-store semantics
// like storeMem).
func (n *node) storeDisk(id block.ID, b []Row) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.diskBytes[id]; ok {
		return false
	}
	n.diskBytes[id] = b
	return true
}

// spillToDisk moves the block's rows from memory to disk (an eviction
// of a MEMORY_AND_DISK block) and returns the bytes they encode to. It
// reports whether rows were actually moved — a block can be evicted by
// the accounting before any task materialized it, in which case the
// spill happens later, at materialization, straight to disk.
func (n *node) spillToDisk(id block.ID) (int64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	b, ok := n.memBytes[id]
	if !ok {
		return 0, false
	}
	delete(n.memBytes, id)
	if _, onDisk := n.diskBytes[id]; !onDisk {
		n.diskBytes[id] = b
		return int64(len(b)) * rowBytes, true
	}
	return 0, false
}

// dropMem discards the block's in-memory rows (a MEMORY_ONLY eviction:
// the rows are simply lost and the next read recomputes).
func (n *node) dropMem(id block.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.memBytes, id)
}

// promoteToMem makes the block's on-disk rows resident in memory
// (prefetch arrival; the disk copy remains, mirroring the accounting).
func (n *node) promoteToMem(id block.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if b, ok := n.diskBytes[id]; ok {
		if _, resident := n.memBytes[id]; !resident {
			n.memBytes[id] = b
		}
	}
}

// wipe destroys the worker's cached and spilled rows and bumps its kill
// epoch (see Engine.wipe).
func (n *node) wipe() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.memBytes = map[block.ID][]Row{}
	n.diskBytes = map[block.ID][]Row{}
	n.epoch++
}

func (n *node) curEpoch() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// flightGroup is the engine's singleflight: concurrent tasks that all
// find the same block's rows (or the same map output) missing recompute
// it exactly once, which both bounds work and keeps the
// lineage-recompute counter deterministic. A flight's result crosses
// tasks, so it is the block's stored rows (block lifetime), which every
// waiter reads in place, never rows of the runner's arena; a map-output
// flight returns nil and its waiters re-read the shuffle's table.
// Flights are reset at every stage boundary.
type flightGroup struct {
	mu    sync.Mutex
	calls map[any]*flightCall
}

type flightCall struct {
	done chan struct{}
	rows []Row
}

// do runs fn for the key unless another goroutine already is (or did),
// in which case it waits for and shares that result. The boolean
// reports whether this caller executed fn.
func (g *flightGroup) do(key any, fn func() []Row) ([]Row, bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = map[any]*flightCall{}
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.rows, false
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()
	c.rows = fn()
	close(c.done)
	return c.rows, true
}

// reset clears completed flights (called between stages, when no tasks
// are in flight).
func (g *flightGroup) reset() {
	g.mu.Lock()
	g.calls = nil
	g.mu.Unlock()
}
