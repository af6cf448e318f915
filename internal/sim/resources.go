package sim

// queue is an allocation-friendly FIFO: a slice with a head index.
// Popping clears the vacated slot (so completed callbacks are
// GC-reclaimable) and the backing array is reused — either by
// resetting when the queue drains or by compacting once the dead
// prefix dominates — instead of the repeated re-allocation the old
// `q = q[1:]; append(q, ...)` pattern caused.
type queue[T any] struct {
	buf  []T
	head int
}

func (q *queue[T]) push(v T) { q.buf = append(q.buf, v) }

func (q *queue[T]) len() int { return len(q.buf) - q.head }

func (q *queue[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf = q.buf[:0]
		q.head = 0
	case q.head > 32 && q.head*2 >= len(q.buf):
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:]) // the moved entries' old slots
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v
}

// Slots models a node's CPU task slots (Spark executor cores) as a
// counting semaphore with a FIFO wait queue. A task holds its slot for
// its entire lifetime — I/O waits included — matching Spark's
// thread-per-task executor.
type Slots struct {
	eng     *Engine
	free    int
	waiting queue[func()]
}

// NewSlots creates a slot pool of the given width.
func NewSlots(eng *Engine, n int) *Slots { return &Slots{eng: eng, free: n} }

// Acquire runs fn as soon as a slot is available (possibly
// immediately, in the current event).
func (s *Slots) Acquire(fn func()) {
	if s.free > 0 {
		s.free--
		fn()
		return
	}
	s.waiting.push(fn)
}

// Release frees a slot, handing it to the oldest waiter if any. The
// waiter runs in a fresh event at the current time so release sites
// don't nest arbitrarily deep.
func (s *Slots) Release() {
	if s.waiting.len() > 0 {
		s.eng.After(0, s.waiting.pop())
		return
	}
	s.free++
}

// Free returns the number of available slots (test helper).
func (s *Slots) Free() int { return s.free }

// Waiting returns the number of queued acquirers (test helper).
func (s *Slots) Waiting() int { return s.waiting.len() }

// Priority classes for device requests: demand I/O (tasks blocked on
// it) is always served before background I/O (prefetches, write-behind
// spills).
type Priority int

const (
	// Demand I/O blocks a running task.
	Demand Priority = iota
	// Background I/O is opportunistic (prefetch, write-behind).
	Background
)

type ioReq struct {
	bytes int64
	done  func()
}

// Device is a single-server FIFO queue with two priority classes,
// modeling one node's disk or NIC. Service time is bytes/bandwidth; a
// request in service is not preempted, but all queued demand requests
// are served before any background request — which is exactly how
// prefetch I/O "steals" only otherwise-idle bandwidth.
type Device struct {
	eng         *Engine
	bytesPerSec int64
	busy        bool
	demand      queue[ioReq]
	background  queue[ioReq]
	// cur is the completion callback of the request in service;
	// completeFn is the service-end event handler, bound once at
	// construction so entering service allocates no closure.
	cur        func()
	completeFn func()
	// slow multiplies service times (>= 1); fault injection uses it to
	// model transient stragglers (a degraded disk or congested NIC).
	slow float64

	// Busy accumulates total service time, for utilization metrics.
	Busy int64
}

// NewDevice creates a device with the given bandwidth in bytes per
// second of simulated time.
func NewDevice(eng *Engine, bytesPerSec int64) *Device {
	d := &Device{eng: eng, bytesPerSec: bytesPerSec, slow: 1}
	d.completeFn = d.complete
	return d
}

// SetSlowdown sets the service-time multiplier; factors below 1 are
// clamped to 1 (the device never speeds up past its bandwidth). It
// affects requests entering service from now on, not one in flight.
func (d *Device) SetSlowdown(f float64) {
	if f < 1 {
		f = 1
	}
	d.slow = f
}

// Transfer enqueues a request for the given byte count; done fires
// when the transfer completes. Zero-byte requests complete in a fresh
// immediate event.
func (d *Device) Transfer(bytes int64, prio Priority, done func()) {
	if bytes <= 0 {
		d.eng.After(0, done)
		return
	}
	req := ioReq{bytes: bytes, done: done}
	if prio == Demand {
		d.demand.push(req)
	} else {
		d.background.push(req)
	}
	d.serve()
}

func (d *Device) serve() {
	if d.busy {
		return
	}
	var req ioReq
	switch {
	case d.demand.len() > 0:
		req = d.demand.pop()
	case d.background.len() > 0:
		req = d.background.pop()
	default:
		return
	}
	d.busy = true
	dur := req.bytes * 1_000_000 / d.bytesPerSec
	if d.slow > 1 {
		dur = int64(float64(dur) * d.slow)
	}
	if dur < 1 {
		dur = 1
	}
	d.Busy += dur
	d.cur = req.done
	d.eng.After(dur, d.completeFn)
}

// complete ends the in-service request: identical ordering to the old
// per-request closure (clear busy, fire the callback — which may
// enqueue and immediately start new work — then serve the queue).
func (d *Device) complete() {
	done := d.cur
	d.cur = nil
	d.busy = false
	done()
	d.serve()
}
