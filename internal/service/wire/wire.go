// Package wire is the advisory service's binary framed protocol: the
// persistent-connection alternative to the JSON API for the
// per-stage-boundary hot path, where HTTP+JSON round-trip cost dwarfs
// policy compute. A connection carries length-prefixed frames with a
// fixed 16-byte header; payloads are compact varint encodings decoded
// zero-copy out of a reused per-connection buffer, and responses are
// built in pooled slabs — no per-request json.Marshal anywhere on the
// hot path.
//
// Frame layout (all integers big-endian):
//
//	u32  length   bytes after this word (header + payload), ≤ MaxFrame
//	u8   version  protocol version (Version)
//	u8   opcode   Op* constant
//	u16  flags    reserved, zero
//	u32  epoch    server session epoch (start time); 0 from clients
//	u64  seq      request sequence, echoed on the matching response
//
// The epoch lets a client holding a persistent connection detect a
// server restart across reconnects: a changed epoch means recorded
// replay state on the server side is gone (or snapshot-restored) and
// idempotent replay is what reconciles. The seq pairs responses with
// requests on a pipelined connection.
//
// This package holds only the framing and primitive codecs; the typed
// payload encodings live next to the API types in package service.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Protocol constants.
const (
	// Version is the current protocol version; a server answers a
	// mismatched hello with OpError and closes.
	Version = 1
	// HeaderLen is the fixed header size after the length word.
	HeaderLen = 16
	// MaxFrame caps one frame's length field (header + payload),
	// matched to the HTTP tier's request-body cap so neither transport
	// accepts messages the other would refuse.
	MaxFrame = 1 << 20
)

// Opcodes. Requests are even-numbered ops from the client; each names
// the response op(s) it expects back. Any request may instead be
// answered by OpError.
const (
	// OpHello opens a connection: payload is a varstr session ID (may
	// be empty on direct shard connections). The router reads exactly
	// this first frame to pick the owning shard, then splices bytes.
	OpHello byte = 0x01
	// OpHelloOK acknowledges the hello; empty payload. Its header
	// carries the shard's session epoch.
	OpHelloOK byte = 0x02
	// OpCreate registers a session; payload is the JSON
	// CreateSessionRequest (the cold path keeps the one flexible,
	// nested message in JSON).
	OpCreate byte = 0x10
	// OpCreateOK carries the JSON CreateSessionResponse.
	OpCreateOK byte = 0x11
	// OpSubmitJob payload: varstr session ID, uvarint job.
	OpSubmitJob byte = 0x12
	// OpSubmitJobOK payload: uvarint job, uvarint nextJob, u8 replayed.
	OpSubmitJobOK byte = 0x13
	// OpAdvance payload: varstr session ID, uvarint stage.
	OpAdvance byte = 0x14
	// OpAdvice carries one binary-encoded Advice (see package service).
	OpAdvice byte = 0x15
	// OpDelete payload: varstr session ID.
	OpDelete byte = 0x16
	// OpDeleteOK has an empty payload.
	OpDeleteOK byte = 0x17
	// OpStatus payload: varstr session ID.
	OpStatus byte = 0x18
	// OpStatusOK carries the JSON SessionStatus.
	OpStatusOK byte = 0x19
	// OpBatch submits a whole job schedule in one frame: varstr session
	// ID, uvarint step count, then per step a zigzag-varint stage
	// (negative = job submit) and uvarint job. The server streams one
	// OpAdvice frame per advance, then OpBatchEnd.
	OpBatch byte = 0x1a
	// OpBatchEnd payload: uvarint jobs submitted, uvarint advices sent.
	OpBatchEnd byte = 0x1b
	// OpError payload: uvarint HTTP-equivalent status, varstr message.
	OpError byte = 0x7f
)

// Header is the fixed frame header.
type Header struct {
	Version byte
	Op      byte
	Flags   uint16
	Epoch   uint32
	Seq     uint64
}

// Framing errors.
var (
	// ErrFrameTooLarge means a length word exceeded MaxFrame; the
	// connection is unrecoverable (framing is lost).
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	// ErrFrameTooSmall means a length word didn't cover the header.
	ErrFrameTooSmall = errors.New("wire: frame shorter than header")
	// ErrTruncated means a payload decode ran past the frame end or hit
	// a malformed varint.
	ErrTruncated = errors.New("wire: truncated or malformed payload")
)

// ReadFrame reads one frame from r into buf, growing it as needed, and
// returns the header, the payload as a view into the (possibly grown)
// buffer, and the buffer for reuse on the next call. The payload is
// only valid until the next ReadFrame with the same buffer.
func ReadFrame(r io.Reader, buf []byte) (Header, []byte, []byte, error) {
	if cap(buf) < HeaderLen {
		buf = make([]byte, 4096)
	}
	b := buf[:4]
	if _, err := io.ReadFull(r, b); err != nil {
		return Header{}, nil, buf, err
	}
	n := binary.BigEndian.Uint32(b)
	if n > MaxFrame {
		return Header{}, nil, buf, ErrFrameTooLarge
	}
	if n < HeaderLen {
		return Header{}, nil, buf, ErrFrameTooSmall
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	b = buf[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Header{}, nil, buf, err
	}
	h := Header{
		Version: b[0],
		Op:      b[1],
		Flags:   binary.BigEndian.Uint16(b[2:4]),
		Epoch:   binary.BigEndian.Uint32(b[4:8]),
		Seq:     binary.BigEndian.Uint64(b[8:16]),
	}
	return h, b[HeaderLen:n], buf, nil
}

// Enc builds one frame in a reusable buffer. Begin writes the length
// placeholder and header; the primitive appenders fill the payload;
// Frame patches the length and returns the encoded bytes, valid until
// the next Begin. An Enc is reused across requests (and pooled by the
// frame server), so the hot path allocates nothing once warm.
type Enc struct {
	b []byte
}

// Begin resets the encoder and writes the header for a new frame.
func (e *Enc) Begin(h Header) {
	e.b = append(e.b[:0],
		0, 0, 0, 0, // length, patched by Frame
		h.Version, h.Op,
		byte(h.Flags>>8), byte(h.Flags),
		byte(h.Epoch>>24), byte(h.Epoch>>16), byte(h.Epoch>>8), byte(h.Epoch),
		byte(h.Seq>>56), byte(h.Seq>>48), byte(h.Seq>>40), byte(h.Seq>>32),
		byte(h.Seq>>24), byte(h.Seq>>16), byte(h.Seq>>8), byte(h.Seq),
	)
}

// U8 appends one byte.
func (e *Enc) U8(v byte) { e.b = append(e.b, v) }

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Varint appends a zigzag-encoded signed varint.
func (e *Enc) Varint(v int64) { e.b = binary.AppendVarint(e.b, v) }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.b = binary.AppendUvarint(e.b, uint64(len(s)))
	e.b = append(e.b, s...)
}

// Raw appends bytes verbatim (JSON payloads on the cold path).
func (e *Enc) Raw(p []byte) { e.b = append(e.b, p...) }

// Frame patches the length word and returns the whole frame. The slice
// aliases the encoder's buffer: write it out before the next Begin.
func (e *Enc) Frame() ([]byte, error) {
	n := len(e.b) - 4
	if n > MaxFrame {
		return nil, fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(e.b[:4], uint32(n))
	return e.b, nil
}

// Dec is a sticky-error cursor over one frame's payload. Reads past
// the end (or malformed varints) latch the error; callers check Err
// once after pulling every field, keeping decode loops branch-light.
type Dec struct {
	b   []byte
	off int
	bad bool
}

// NewDec starts a decoder over a payload view.
func NewDec(b []byte) Dec { return Dec{b: b} }

// Err reports whether any read ran past the payload.
func (d *Dec) Err() error {
	if d.bad {
		return ErrTruncated
	}
	return nil
}

// Remaining is how many bytes are left undecoded.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

// U8 reads one byte.
func (d *Dec) U8() byte {
	if d.bad || d.off >= len(d.b) {
		d.bad = true
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (d *Dec) Varint() int64 {
	if d.bad {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.off += n
	return v
}

// Bytes reads a length-prefixed byte view — zero-copy: the slice
// aliases the frame buffer and is only valid until the next ReadFrame.
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.bad || n > uint64(len(d.b)-d.off) {
		d.bad = true
		return nil
	}
	v := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return v
}

// Str reads a length-prefixed string (copies; use Bytes plus interning
// where the copy matters).
func (d *Dec) Str() string { return string(d.Bytes()) }
