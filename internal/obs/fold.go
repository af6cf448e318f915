package obs

// FoldEvents is the size of a Fold's chunk: the most events one bus
// holds back from its aggregator, about 13 KB of them.
const FoldEvents = 128

// Fold feeds one bus's events to a shared aggregator a chunk at a time.
// Subscribed per event (Attach), a bus takes the aggregator's lock and
// reads the clock once an event — several hundred times in one advisory
// call, on a lock every session of a server contends for. A Fold keeps
// the events in a fixed chunk instead and folds them in under one lock
// acquisition, stamped with one clock reading, when the chunk fills and
// whenever its owner calls Flush: for a served session, at the end of
// every operation, so a reader of the aggregator sees whole operations.
// An event's At is therefore the instant it was folded in, not the
// instant it was emitted. The chunk never grows: FoldEvents is the
// bound on what a bus holds back, whatever an operation emits.
//
// Like the bus it subscribes to, a Fold is not synchronized: Flush and
// Close run under whatever serializes Emit (the session lock).
type Fold struct {
	agg    *Aggregator
	clock  func() int64
	detach func()
	times  blockTimes // touched only inside the aggregator, under its lock
	n      int
	chunk  [FoldEvents]Event
}

// AttachFolded subscribes the aggregator to the bus through a new Fold,
// as an event stream of its own. clock stamps the events at each fold,
// so the bus needs none.
func (a *Aggregator) AttachFolded(b *Bus, clock func() int64) *Fold {
	f := &Fold{agg: a, clock: clock, times: newBlockTimes()}
	f.detach = b.Subscribe(f.hold)
	return f
}

func (f *Fold) hold(ev Event) {
	f.chunk[f.n] = ev
	if f.n++; f.n == len(f.chunk) {
		f.Flush()
	}
}

// Flush folds the events held back into the aggregator.
func (f *Fold) Flush() {
	if f.n > 0 {
		f.agg.observeBatch(&f.times, f.clock(), f.chunk[:f.n])
		f.n = 0
	}
}

// Close flushes, then detaches the Fold from its bus: nothing emitted
// before it is lost, nothing emitted after it arrives.
func (f *Fold) Close() {
	f.Flush()
	f.detach()
}
