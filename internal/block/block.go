// Package block defines the identity and metadata of cacheable data
// blocks. A block is one partition of an RDD, mirroring Spark's
// rdd_<rddID>_<partition> block naming. Blocks are the unit of caching,
// eviction and prefetching throughout the system.
package block

import (
	"fmt"
	"math"
	"strconv"
)

// ID identifies a single RDD partition block, the unit of cache
// management. It corresponds to Spark's RDDBlockId.
type ID struct {
	RDD       int // the owning RDD's ID
	Partition int // partition index within the RDD
}

const (
	namePrefix = "rdd_"
	// maxNameDigits bounds each number of a block name: ten digits hold
	// every value up to math.MaxInt32, the largest a name may carry.
	maxNameDigits = 10
	// MaxNameLen is the length of the longest name ParseID accepts — and
	// of the longest AppendName renders for an ID ParseID can return.
	MaxNameLen = len(namePrefix) + maxNameDigits + 1 + maxNameDigits
)

// AppendName appends the ID in Spark's canonical block-name format,
// rdd_<rddID>_<partition>, and returns the extended buffer.
func (id ID) AppendName(dst []byte) []byte {
	dst = append(dst, namePrefix...)
	dst = strconv.AppendInt(dst, int64(id.RDD), 10)
	dst = append(dst, '_')
	return strconv.AppendInt(dst, int64(id.Partition), 10)
}

// String renders the ID in Spark's canonical block-name format.
func (id ID) String() string {
	var buf [MaxNameLen]byte
	return string(id.AppendName(buf[:0]))
}

// ParseID parses a rdd_<rddID>_<partition> block name back into an ID —
// the inverse of String, used when replaying traces and decoding advice.
// It is strict: two runs of one to ten decimal digits, each at most
// math.MaxInt32, with no sign and nothing before, between or after them
// but the fixed punctuation.
func ParseID(s string) (ID, error) {
	id, ok := ParseName(s)
	if !ok {
		return ID{}, fmt.Errorf("block: bad block name %q", s)
	}
	return id, nil
}

// ParseName is ParseID over a string or a byte view, reporting failure
// as a flag: it allocates nothing either way, which is what the wire
// decoder needs of it.
func ParseName[T string | []byte](s T) (ID, bool) {
	if len(s) > MaxNameLen || len(s) < len(namePrefix) || string(s[:len(namePrefix)]) != namePrefix {
		return ID{}, false
	}
	rdd, n := parseNumber(s[len(namePrefix):])
	rest := s[len(namePrefix)+n:]
	if n == 0 || len(rest) == 0 || rest[0] != '_' {
		return ID{}, false
	}
	part, n := parseNumber(rest[1:])
	if n == 0 || n != len(rest)-1 {
		return ID{}, false
	}
	return ID{RDD: rdd, Partition: part}, true
}

// parseNumber reads the leading run of decimal digits and returns its
// value and length; the length is 0 when there is no digit, more than
// maxNameDigits of them, or the value exceeds math.MaxInt32.
func parseNumber[T string | []byte](s T) (v, n int) {
	var acc int64 // ten digits overflow a 32-bit int
	for n < len(s) && s[n] >= '0' && s[n] <= '9' {
		if n == maxNameDigits {
			return 0, 0
		}
		acc = acc*10 + int64(s[n]-'0')
		n++
	}
	if acc > math.MaxInt32 {
		return 0, 0
	}
	return int(acc), n
}

// Less orders IDs first by RDD, then by partition. It provides the
// deterministic tiebreak order used by policies and tests.
func (id ID) Less(other ID) bool {
	if id.RDD != other.RDD {
		return id.RDD < other.RDD
	}
	return id.Partition < other.Partition
}

// StorageLevel describes where a block's bytes may live, mirroring
// Spark's StorageLevel (simplified to the levels the paper exercises).
// It is one byte wide so that Info, which the stores' tables and the
// simulator's insert lists are made of, stays four words.
type StorageLevel int8

const (
	// MemoryOnly blocks live in the memory store and are dropped
	// (and later recomputed) when evicted. Spark's MEMORY_ONLY.
	MemoryOnly StorageLevel = iota
	// MemoryAndDisk blocks are spilled to the local disk store on
	// eviction and can be reloaded without recomputation.
	MemoryAndDisk
)

// String returns the Spark-style name of the storage level.
func (l StorageLevel) String() string {
	switch l {
	case MemoryOnly:
		return "MEMORY_ONLY"
	case MemoryAndDisk:
		return "MEMORY_AND_DISK"
	default:
		return fmt.Sprintf("StorageLevel(%d)", int(l))
	}
}

// Info carries the immutable metadata of a block known to the block
// managers: its size and the storage level requested by the program.
type Info struct {
	ID    ID
	Size  int64 // bytes
	Level StorageLevel
	// Unread is the memory store's mark on a block a prefetch brought in
	// and no read has touched yet. Only the store sets and clears it, on
	// the copy it holds, and reports it on the copies it hands back; on
	// an Info anyone else builds it means nothing.
	Unread bool
}
