package sim

// queue is an allocation-free FIFO: a ring buffer that grows, by
// doubling, only when it is full, so a queue reserved for its peak
// population never allocates again. Popping clears the vacated slot, so
// a fired handler is GC-reclaimable.
type queue[T any] struct {
	buf  []T // the ring; every slot outside the n from head is zero
	head int
	n    int
}

func (q *queue[T]) push(v T) {
	if q.n == len(q.buf) {
		q.resize(max(2*len(q.buf), 8))
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.n++
}

func (q *queue[T]) len() int { return q.n }

func (q *queue[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return v
}

// reserve gives the queue room for n entries.
func (q *queue[T]) reserve(n int) {
	if n > len(q.buf) {
		q.resize(n)
	}
}

// resize moves the entries, in order, to the front of a ring of size
// slots.
func (q *queue[T]) resize(size int) {
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = buf, 0
}

// Slots models a node's CPU task slots (Spark executor cores) as a
// counting semaphore with a FIFO wait queue. A task holds its slot for
// its entire lifetime — I/O waits included — matching Spark's
// thread-per-task executor.
type Slots struct {
	eng     *Engine
	free    int
	waiting queue[Handler]
}

// NewSlots creates a slot pool of the given width.
func NewSlots(eng *Engine, n int) *Slots { return &Slots{eng: eng, free: n} }

// Acquire fires h as soon as a slot is available (possibly
// immediately, in the current event).
func (s *Slots) Acquire(h Handler) {
	if s.free > 0 {
		s.free--
		h.fire()
		return
	}
	s.waiting.push(h)
}

// Release frees a slot, handing it to the oldest waiter if any. The
// waiter runs in a fresh event at the current time so release sites
// don't nest arbitrarily deep.
func (s *Slots) Release() {
	if s.waiting.len() > 0 {
		s.eng.schedule(s.eng.now, s.waiting.pop())
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
	done  Handler
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
	// cur is the completion handler of the request in service; the
	// service-end event is the device itself.
	cur Handler
	// slow multiplies service times (>= 1); fault injection uses it to
	// model transient stragglers (a degraded disk or congested NIC).
	slow float64

	// Busy accumulates total service time, for utilization metrics.
	Busy int64
}

// NewDevice creates a device with the given bandwidth in bytes per
// second of simulated time.
func NewDevice(eng *Engine, bytesPerSec int64) *Device {
	return &Device{eng: eng, bytesPerSec: bytesPerSec, slow: 1}
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
func (d *Device) Transfer(bytes int64, prio Priority, done Handler) {
	if bytes <= 0 {
		d.eng.schedule(d.eng.now, done)
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
	d.eng.schedule(d.eng.now+dur, d)
}

// fire ends the in-service request: clear busy, fire its handler —
// which may enqueue and immediately start new work — then serve the
// queue.
func (d *Device) fire() {
	done := d.cur
	d.cur = nil
	d.busy = false
	done.fire()
	d.serve()
}

// noop is the completion handler of a transfer nothing waits on: a
// write-behind, a replica copy, a lost shuffle's rewrite.
var noop Handler = Func(func() {})
