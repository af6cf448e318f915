package service

import (
	"fmt"

	"mrdspark/internal/block"
	"mrdspark/internal/service/wire"
)

// Binary payload codecs for the frame protocol's hot messages. The
// cold-path messages (create, status) stay JSON inside their frames;
// everything on the per-stage-boundary path — submit, advance, advice,
// batch — is encoded here with varints and a decision-kind enum, so a
// typical advice payload is tens of bytes against ~1 KiB of JSON, and
// neither side runs a general-purpose marshaller.

// decisionKinds is the closed set of decision kinds in wire order; the
// codec sends a one-byte index for these and falls back to an inline
// string (decisionKindOther) for any kind a future policy adds, so old
// decoders fail loudly instead of misattributing.
var decisionKinds = [...]string{"purge", "evict", "prefetch", "prefetch-evict", "prefetch-drop"}

const decisionKindOther = 0xff

func decisionKindCode(kind string) (byte, bool) {
	for i, k := range decisionKinds {
		if k == kind {
			return byte(i), true
		}
	}
	return decisionKindOther, false
}

// AppendAdvicePayload encodes one Advice as an OpAdvice payload.
func AppendAdvicePayload(e *wire.Enc, a *Advice) {
	e.Uvarint(uint64(a.Stage))
	e.Uvarint(uint64(a.Job))
	if a.Replayed {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.Uvarint(uint64(len(a.Decisions)))
	var nameBuf [block.MaxNameLen]byte // a block's name as a varstr, without the string
	for _, d := range a.Decisions {
		code, ok := decisionKindCode(d.Kind)
		e.U8(code)
		if !ok {
			e.Str(d.Kind)
		}
		e.Uvarint(uint64(d.Node))
		name := d.Block.AppendName(nameBuf[:0])
		e.Uvarint(uint64(len(name)))
		e.Raw(name)
	}
	c := &a.Counters
	e.Uvarint(uint64(c.Hits))
	e.Uvarint(uint64(c.Misses))
	e.Uvarint(uint64(c.Promotes))
	e.Uvarint(uint64(c.Recomputes))
	e.Uvarint(uint64(c.Inserts))
	e.Uvarint(uint64(c.Evictions))
	e.Uvarint(uint64(c.Purged))
	e.Uvarint(uint64(c.Prefetches))
}

// DecodeAdvicePayload decodes an OpAdvice payload. Block names are
// parsed out of the frame and an unknown kind's string is copied, so
// the Advice outlives the frame buffer.
func DecodeAdvicePayload(d *wire.Dec) (Advice, error) {
	var a Advice
	a.Stage = int(d.Uvarint())
	a.Job = int(d.Uvarint())
	a.Replayed = d.U8() != 0
	n := d.Uvarint()
	// Each decision is at least 3 bytes (kind, node, empty block), so a
	// count the remaining payload cannot hold is a forged length — caught
	// before allocating, which is what lets the fuzzer hammer this.
	if n > uint64(d.Remaining()) {
		return Advice{}, wire.ErrTruncated
	}
	if n > 0 {
		a.Decisions = make([]Decision, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var dec Decision
		code := d.U8()
		if int(code) < len(decisionKinds) {
			dec.Kind = decisionKinds[code]
		} else if code == decisionKindOther {
			dec.Kind = d.Str()
		} else {
			return Advice{}, fmt.Errorf("service: unknown decision-kind code %#x", code)
		}
		dec.Node = int(d.Uvarint())
		name := d.Bytes()
		if d.Err() != nil {
			return Advice{}, d.Err()
		}
		var ok bool
		if dec.Block, ok = block.ParseName(name); !ok {
			return Advice{}, fmt.Errorf("service: bad block name %q in decision %d", name, i)
		}
		a.Decisions = append(a.Decisions, dec)
	}
	c := &a.Counters
	c.Hits = int(d.Uvarint())
	c.Misses = int(d.Uvarint())
	c.Promotes = int(d.Uvarint())
	c.Recomputes = int(d.Uvarint())
	c.Inserts = int(d.Uvarint())
	c.Evictions = int(d.Uvarint())
	c.Purged = int(d.Uvarint())
	c.Prefetches = int(d.Uvarint())
	if err := d.Err(); err != nil {
		return Advice{}, err
	}
	return a, nil
}

// AppendBatchPayload encodes an OpBatch request: the session ID and
// the schedule steps (zigzag stage so job submits keep their -1).
func AppendBatchPayload(e *wire.Enc, sessionID string, steps []Step) {
	e.Str(sessionID)
	e.Uvarint(uint64(len(steps)))
	for _, st := range steps {
		e.Varint(int64(st.Stage))
		e.Uvarint(uint64(st.Job))
	}
}

// DecodeBatchPayload decodes an OpBatch request. The session ID view
// aliases the frame buffer (the caller interns it); steps are copied.
func DecodeBatchPayload(d *wire.Dec) (id []byte, steps []Step, err error) {
	id = d.Bytes()
	n := d.Uvarint()
	// Two bytes minimum per step bounds a forged count.
	if n > uint64(d.Remaining()) {
		return nil, nil, wire.ErrTruncated
	}
	if n > uint64(MaxBatchSteps) {
		return nil, nil, fmt.Errorf("service: batch of %d steps exceeds %d", n, MaxBatchSteps)
	}
	steps = make([]Step, 0, n)
	for i := uint64(0); i < n; i++ {
		st := Step{Stage: int(d.Varint()), Job: int(d.Uvarint())}
		if d.Err() != nil {
			return nil, nil, d.Err()
		}
		steps = append(steps, st)
	}
	return id, steps, d.Err()
}
