package exec

import (
	"sync"

	"mrdspark/internal/block"
)

// shuffleKey addresses one map-output bucket: shuffle sid's map task
// mapPart wrote it for reduce partition reducePart.
type shuffleKey struct{ sid, mapPart, reducePart int }

// node is one worker's byte plane: memBytes, diskBytes and the shuffle
// bucket map hold the actual encoded rows and are read and written by
// worker goroutines under the node's mutex. The accounting plane —
// which block is resident where — lives in the engine's Advisor, is
// mutated only at stage boundaries on the master, and is read by
// workers through Advisor.Resident/OnDisk (the stores' own locks make
// that safe). Accounting leads, bytes follow: a block's bytes are
// stored where the accounting says it is resident, and a byte-plane
// lookup that comes up empty (worker killed, or a MEMORY_ONLY eviction
// dropped the bytes) falls back to lineage recompute.
type node struct {
	id int

	mu        sync.Mutex
	memBytes  map[block.ID][]byte
	diskBytes map[block.ID][]byte
	shuffle   map[shuffleKey][]byte
	// epoch counts kill wipes. A task that observes a different epoch
	// at completion than at start ran over a dying worker and re-runs.
	epoch int
}

func newNode(id int) *node {
	return &node{
		id:        id,
		memBytes:  map[block.ID][]byte{},
		diskBytes: map[block.ID][]byte{},
		shuffle:   map[shuffleKey][]byte{},
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

func (n *node) putBucket(k shuffleKey, b []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.shuffle[k]; !ok {
		n.shuffle[k] = b
	}
}

func (n *node) getBucket(k shuffleKey) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	b, ok := n.shuffle[k]
	return b, ok
}

// wipeData destroys the worker's byte plane — cached bytes, spilled
// bytes, and every shuffle bucket it served — and bumps the kill
// epoch. This is the data half of a worker kill; the accounting half
// (Advisor.OnNodeFailure) is applied by the master, at the next stage
// boundary for mid-stage kills.
func (n *node) wipeData() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.memBytes = map[block.ID][]byte{}
	n.diskBytes = map[block.ID][]byte{}
	n.shuffle = map[shuffleKey][]byte{}
	n.epoch++
}

func (n *node) curEpoch() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// mapFlightKey deduplicates concurrent recomputes of one lost map
// task's shuffle output.
type mapFlightKey struct{ sid, mapPart int }

// flightGroup is the engine's singleflight: concurrent tasks that all
// find the same block's bytes (or the same map output) missing
// recompute it exactly once, which both bounds work and keeps the
// lineage-recompute counter deterministic. Flights are reset at every
// stage boundary.
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
