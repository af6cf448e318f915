package exec

import (
	"sync"

	"mrdspark/internal/block"
)

// shuffleKey addresses one map task's shuffle output (and the flight
// that recomputes it when lost).
type shuffleKey struct{ sid, mapPart int }

// mapOutput is everything one map task wrote for one shuffle, with
// run lifetime: a single slab of encoded rows grouped by reduce
// partition, and the row offset each group starts at. Reducer q's
// bucket is a sub-slice of the slab; "no rows for you" is an empty
// range, while "output lost with its worker" is a missing entry — so a
// map output is present whole or not at all.
type mapOutput struct {
	slab []byte
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
	slab := make([]byte, len(rows)*rowBytes)
	for i, r := range rows {
		q := bucket[i]
		putRow(slab[int(off[q])*rowBytes:], r)
		off[q]++
	}
	// Each cursor now sits at its bucket's end: the next one's start.
	copy(off[1:], off)
	off[0] = 0
	return mapOutput{slab, off}
}

func (o mapOutput) bucket(q int) []byte {
	return o.slab[int(o.off[q])*rowBytes : int(o.off[q+1])*rowBytes]
}

// node is one worker's byte plane: memBytes, diskBytes and the map
// outputs hold the actual encoded rows and are read and written by
// worker goroutines under the node's mutex. Cached bytes have block
// lifetime (the accounting's Spill/Drop releases them), map outputs run
// lifetime; a kill ends both early. Rows, which have task lifetime,
// never come here (see arena). The accounting plane —
// which block is resident where — lives in the engine's Advisor, is
// mutated only at stage boundaries on the master, and is read by
// workers through Advisor.Resident/OnDisk. The accounting stores hold
// no lock: the master mutates them only between task waves, and the
// dispatch channels that start a wave and collect its results order
// every worker read after the boundary's last write and before the
// next one's first. Accounting leads, bytes follow: a block's bytes are
// stored where the accounting says it is resident, and a byte-plane
// lookup that comes up empty (worker killed, or a MEMORY_ONLY eviction
// dropped the bytes) falls back to lineage recompute.
type node struct {
	id int

	mu        sync.Mutex
	memBytes  map[block.ID][]byte
	diskBytes map[block.ID][]byte
	shuffle   map[shuffleKey]mapOutput
	// epoch counts kill wipes. A task that observes a different epoch
	// at completion than at start ran over a dying worker and re-runs.
	epoch int
}

func newNode(id int) *node {
	return &node{
		id:        id,
		memBytes:  map[block.ID][]byte{},
		diskBytes: map[block.ID][]byte{},
		shuffle:   map[shuffleKey]mapOutput{},
	}
}

func (n *node) loadMem(id block.ID) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	b, ok := n.memBytes[id]
	return b, ok
}

func (n *node) loadDisk(id block.ID) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	b, ok := n.diskBytes[id]
	return b, ok
}

// storeMem stores the block's bytes in memory, reporting whether this
// call was the first to store them (concurrent tasks materializing the
// same block are deduplicated so data-plane counters stay
// deterministic).
func (n *node) storeMem(id block.ID, b []byte) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.memBytes[id]; ok {
		return false
	}
	n.memBytes[id] = b
	return true
}

// storeDisk stores the block's bytes on disk (first-store semantics
// like storeMem).
func (n *node) storeDisk(id block.ID, b []byte) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.diskBytes[id]; ok {
		return false
	}
	n.diskBytes[id] = b
	return true
}

// spillToDisk moves the block's bytes from memory to disk (an
// eviction of a MEMORY_AND_DISK block). It reports whether bytes were
// actually moved — a block can be evicted by the accounting before any
// task materialized it, in which case the spill happens later, at
// materialization, straight to disk.
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
		return int64(len(b)), true
	}
	return 0, false
}

// dropMem discards the block's in-memory bytes (a MEMORY_ONLY
// eviction: the bytes are simply lost and the next read recomputes).
func (n *node) dropMem(id block.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.memBytes, id)
}

// promoteToMem copies the block's on-disk bytes into memory (prefetch
// arrival; the disk copy remains, mirroring the accounting).
func (n *node) promoteToMem(id block.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if b, ok := n.diskBytes[id]; ok {
		if _, resident := n.memBytes[id]; !resident {
			n.memBytes[id] = b
		}
	}
}

func (n *node) putOutput(k shuffleKey, o mapOutput) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.shuffle[k]; !ok {
		n.shuffle[k] = o
	}
}

func (n *node) getOutput(k shuffleKey) (mapOutput, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	o, ok := n.shuffle[k]
	return o, ok
}

// wipeData destroys the worker's byte plane — cached bytes, spilled
// bytes, and every map output it served — and bumps the kill
// epoch. This is the data half of a worker kill; the accounting half
// (Advisor.OnNodeFailure) is applied by the master, at the next stage
// boundary for mid-stage kills.
func (n *node) wipeData() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.memBytes = map[block.ID][]byte{}
	n.diskBytes = map[block.ID][]byte{}
	n.shuffle = map[shuffleKey]mapOutput{}
	n.epoch++
}

func (n *node) curEpoch() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// flightGroup is the engine's singleflight: concurrent tasks that all
// find the same block's bytes (or the same map output) missing
// recompute it exactly once, which both bounds work and keeps the
// lineage-recompute counter deterministic. A flight's result crosses
// tasks, so it is the block's encoded bytes (block lifetime), never
// rows of the runner's arena; a map-output flight returns nil and its
// waiters re-read the store. Flights are reset at every stage boundary.
type flightGroup struct {
	mu    sync.Mutex
	calls map[any]*flightCall
}

type flightCall struct {
	done  chan struct{}
	bytes []byte
}

// do runs fn for the key unless another goroutine already is (or did),
// in which case it waits for and shares that result. The boolean
// reports whether this caller executed fn.
func (g *flightGroup) do(key any, fn func() []byte) ([]byte, bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = map[any]*flightCall{}
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.bytes, false
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()
	c.bytes = fn()
	close(c.done)
	return c.bytes, true
}

// reset clears completed flights (called between stages, when no tasks
// are in flight).
func (g *flightGroup) reset() {
	g.mu.Lock()
	g.calls = nil
	g.mu.Unlock()
}
