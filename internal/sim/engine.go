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
// What an event fires is a Handler. The run's long-lived actors — a
// task, a prefetch leg, a device — are their own handlers, so handing
// one to the engine, a device or a slot queue binds no closure; At and
// After take a closure and wrap it as a Func.
//
// Only the future is ordered by a heap: a binary heap holding the
// events themselves, (at, seq, handler) inline, so a comparison reads two
// adjacent array elements and nothing else. An event scheduled for now
// or earlier — a zero-byte transfer, a slot hand-off: over a third of a
// run's events — goes to a FIFO instead, because among events due at one
// instant scheduling order is firing order. Both backing arrays are
// reused across the run, so a warmed engine schedules and fires without
// allocating (see TestEngineSteadyStateAllocs).
type Engine struct {
	now    int64 // microseconds of simulated time
	nextID int64
	heap   []event        // binary heap ordered by (at, seq); every at > now when scheduled
	due    queue[Handler] // events scheduled for now, in scheduling order
}

type event struct {
	at  int64
	seq int64
	h   Handler
}

// Handler is what an event fires and what a device or a slot queue
// calls back. Its method is unexported: the handlers are this
// package's own types and Func.
type Handler interface{ fire() }

// Func is a closure as a Handler.
type Func func()

func (f Func) fire() { f() }

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time in microseconds.
func (e *Engine) Now() int64 { return e.now }

// At schedules fn at absolute time t (clamped to now: the past is not
// rewritable).
func (e *Engine) At(t int64, fn func()) { e.schedule(t, Func(fn)) }

// After schedules fn d microseconds from now.
func (e *Engine) After(d int64, fn func()) { e.schedule(e.now+d, Func(fn)) }

// schedule fires h at absolute time t, clamped to now.
func (e *Engine) schedule(t int64, h Handler) {
	if t <= e.now {
		e.due.push(h)
		return
	}
	e.heap = append(e.heap, event{at: t, seq: e.nextID, h: h})
	e.nextID++
	e.siftUp(len(e.heap) - 1)
}

// reserve sizes the heap and the now-FIFO for the given numbers of
// events pending at once.
func (e *Engine) reserve(future, now int) {
	e.heap = make([]event, 0, future)
	e.due.reserve(now)
}

// Run processes events until the queues drain, returning the final
// simulated time. The order is the strict (at, scheduling order) one:
// a heap event due now was scheduled before the clock got here, so
// before anything the FIFO holds, and fires first; then the FIFO, which
// only handlers running at this instant append to; and only when both
// are spent does the clock move to the heap's next timestamp.
//
// A Func is called directly, so the closures At and After schedule skip
// the adapter's frame.
func (e *Engine) Run() int64 {
	for {
		var h Handler
		switch {
		case len(e.heap) > 0 && e.heap[0].at <= e.now:
			h = e.pop()
		case e.due.len() > 0:
			h = e.due.pop()
		case len(e.heap) > 0:
			e.now = e.heap[0].at
			h = e.pop()
		default:
			return e.now
		}
		if f, ok := h.(Func); ok {
			f()
		} else {
			h.fire()
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
// fired handler (and everything it reaches) live until the slot is
// overwritten.
func (e *Engine) pop() Handler {
	h := e.heap
	first := h[0].h
	n := len(h) - 1
	ev := h[n] // the last event goes down from the root
	h[n] = event{}
	h = h[:n]
	e.heap = h
	if n == 0 {
		return first
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
	return first
}

// slabLive returns how many slots of the two backing arrays, up to
// capacity, still hold a handler (test helper: after Run drains the
// queues it must be zero, or fired events would pin what they reach
// until the slot is overwritten).
func (e *Engine) slabLive() int {
	live := 0
	for _, ev := range e.heap[:cap(e.heap)] {
		if ev.h != nil {
			live++
		}
	}
	for _, h := range e.due.buf[:cap(e.due.buf)] {
		if h != nil {
			live++
		}
	}
	return live
}
