package exec

// arenaChunkRows is the arena's chunk size (1 MiB of rows): a task's
// working set usually fits in one or two chunks, and idle workers hold
// little.
const arenaChunkRows = 1 << 16

// arena is one worker's task-lifetime row memory: a bump allocator
// over fixed, pointer-free chunks. Everything a task's operators
// produce — generated partitions, narrow outputs, gathered buckets,
// sort scratch — is carved from it and dies together
// at reset, which keeps the chunks for the next task. Allocations are
// not zeroed; every caller overwrites all it asked for.
type arena struct {
	chunks [][]Row
	cur    int // chunks[cur] is being carved
	off    int // rows of it handed out
	last   int // where in it the latest allocation starts
	kept   int // rows at the front of chunks[0] that outlive reset
}

// alloc returns n rows with capacity clipped to n, so an append past
// the end copies out instead of running into the next allocation. A
// request larger than a chunk falls through to the heap.
func (a *arena) alloc(n int) []Row {
	if n > arenaChunkRows {
		return make([]Row, n)
	}
	if a.off+n > arenaChunkRows {
		a.cur, a.off = a.cur+1, 0
	}
	if a.cur == len(a.chunks) {
		a.chunks = append(a.chunks, make([]Row, arenaChunkRows))
	}
	a.last, a.off = a.off, a.off+n
	return a.chunks[a.cur][a.last:a.off:a.off]
}

// trim cuts s to its first n rows and, when s is still the latest
// allocation, hands the tail back. An operator that re-entered the
// arena since allocating s (a lineage recompute under gather) just
// keeps the slack until reset.
func (a *arena) trim(s []Row, n int) []Row {
	if len(s) > 0 && a.last+len(s) == a.off && &s[0] == &a.chunks[a.cur][a.last] {
		a.off = a.last + n
	}
	return s[:n:n]
}

// reset ends the task: everything but the kept rows is dead.
func (a *arena) reset() { a.cur, a.off, a.last = 0, a.kept, a.kept }

// keep carries a task's result over into the tasks that follow: it moves
// rows (dead or alive, the rest of the arena is given up) to the front
// of the first chunk, behind the rows already kept, and returns them
// there, where every reset until release rewinds to just past them — so
// a task attempt that re-runs cannot touch them. It reports false, and
// moves nothing, when the first chunk has no room left. Rows larger
// than a chunk are on the heap already and stay where they are.
func (a *arena) keep(rows []Row) ([]Row, bool) {
	if len(rows) > arenaChunkRows {
		return rows, true
	}
	if a.kept+len(rows) > arenaChunkRows {
		return nil, false
	}
	a.reset()
	dst := a.alloc(len(rows))
	copy(dst, rows) // a memmove: rows may overlap their destination
	a.kept += len(rows)
	return dst, true
}

// release gives the kept rows up to the next reset.
func (a *arena) release() { a.kept = 0 }
