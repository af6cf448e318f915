// Package sim is a deterministic discrete-event simulator of a Spark
// cluster executing an application DAG: per-node CPU task slots, disk
// and NIC queues with demand/background priorities, stage-by-stage
// scheduling with data locality, shuffle I/O, and the cache
// interactions (hits, misses, promotes, recomputes, evictions,
// prefetches) the cache-management policies compete on.
package sim

// Engine is a minimal deterministic discrete-event loop. Events fire
// in timestamp order; ties break in scheduling order, which keeps runs
// reproducible bit for bit.
//
// Only the future is ordered by a heap: a binary heap holding the
// events themselves, (at, seq, fn) inline, so a comparison reads two
// adjacent array elements and nothing else. An event scheduled for now
// or earlier — a zero-byte transfer, a slot hand-off: over a third of a
// run's events — goes to a FIFO instead, because among events due at one
// instant scheduling order is firing order. Both backing arrays are
// reused across the run, so a warmed engine schedules and fires without
// allocating (see TestEngineSteadyStateAllocs).
type Engine struct {
	now    int64 // microseconds of simulated time
	nextID int64
	heap   []event       // binary heap ordered by (at, seq); every at > now when scheduled
	due    queue[func()] // events scheduled for now, in scheduling order
}

type event struct {
	at  int64
	seq int64
	fn  func()
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time in microseconds.
func (e *Engine) Now() int64 { return e.now }

// At schedules fn at absolute time t (clamped to now: the past is not
// rewritable).
func (e *Engine) At(t int64, fn func()) {
	if t <= e.now {
		e.due.push(fn)
		return
	}
	e.heap = append(e.heap, event{at: t, seq: e.nextID, fn: fn})
	e.nextID++
	e.siftUp(len(e.heap) - 1)
}

// After schedules fn d microseconds from now.
func (e *Engine) After(d int64, fn func()) { e.At(e.now+d, fn) }

// Run processes events until the queues drain, returning the final
// simulated time. The order is the strict (at, scheduling order) one:
// a heap event due now was scheduled before the clock got here, so
// before anything the FIFO holds, and fires first; then the FIFO, which
// only handlers running at this instant append to; and only when both
// are spent does the clock move to the heap's next timestamp.
func (e *Engine) Run() int64 {
	for {
		switch {
		case len(e.heap) > 0 && e.heap[0].at <= e.now:
			e.pop()()
		case e.due.len() > 0:
			e.due.pop()()
		case len(e.heap) > 0:
			e.now = e.heap[0].at
		default:
			return e.now
		}
	}
}

// Pending returns the number of queued events (test helper).
func (e *Engine) Pending() int { return len(e.heap) + e.due.len() }

// before orders two events by (timestamp, scheduling order). Both
// fields together form a strict total order, so any heap yields the
// same pop sequence.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// pop removes the minimum event from the heap and returns its handler.
// The vacated tail slot is zeroed: the backing array must not keep a
// fired closure (and everything it captures) live until the slot is
// overwritten.
func (e *Engine) pop() func() {
	h := e.heap
	fn := h[0].fn
	n := len(h) - 1
	ev := h[n] // the last event goes down from the root
	h[n] = event{}
	h = h[:n]
	e.heap = h
	if n == 0 {
		return fn
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&ev) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = ev
	return fn
}

// slabLive returns how many slots of the two backing arrays, up to
// capacity, still hold a closure (test helper: after Run drains the
// queues it must be zero, or fired events would pin their captured
// state until the slot is overwritten).
func (e *Engine) slabLive() int {
	live := 0
	for _, ev := range e.heap[:cap(e.heap)] {
		if ev.fn != nil {
			live++
		}
	}
	for _, fn := range e.due.buf[:cap(e.due.buf)] {
		if fn != nil {
			live++
		}
	}
	return live
}
