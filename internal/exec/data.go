// Package exec is the real data plane: a master/worker execution
// runtime that actually runs the DAG's operators over deterministically
// generated partitioned data, with a live block manager — cache
// accounting driven by the configured policy, spill-to-disk under
// pressure, shuffle write/read between stages, and lineage recompute
// on worker loss — standing where the simulator only models one. The
// cache decisions at every stage boundary are made by a
// service.Advisor the engine drives (DESIGN.md §15); the engine moves
// the real bytes after it. An executed run's decision stream is
// therefore directly comparable, byte for byte, with the simulator's
// and the advisor's: the sim is the oracle for the engine, and the
// engine is the measured ground truth for the sim.
package exec

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

	"mrdspark/internal/dag"
)

// Row is one key/value record of an executed partition. Keys drive
// shuffle partitioning, joins and aggregations; values carry the
// payload the narrow operators transform. Both are opaque 64-bit
// words: cache management cares about data volume and movement, not
// arithmetic meaning, but every transformation is a pure function so
// recomputed partitions are byte-identical to their first run.
type Row struct {
	Key uint64
	Val uint64
}

// rowBytes is the encoded size of one Row.
const rowBytes = 16

// DefaultRows is the number of rows generated per source partition
// when workload.Params.DataRows is zero — small enough that full
// workloads execute in milliseconds, large enough that shuffles, joins
// and aggregations do real work.
const DefaultRows = 512

// DefaultSkew is the hot-key fraction when workload.Params.DataSkew is
// zero: a fifth of all rows land on a 16-key hot set, giving
// reduce-side skew without degenerate partitions.
const DefaultSkew = 0.2

// hotKeys is the size of the skewed hot-key set.
const hotKeys = 16

// keySpace bounds uniformly drawn keys.
const keySpace = 1 << 20

// splitmix64 is the project-standard bit mixer (same finalizer the
// fault RNG and shard router use): a bijective avalanche over one
// 64-bit word.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// mixVal is the value transformation every narrow "compute" applies: a
// cheap, invertibility-free scramble standing in for the numerical
// kernel (whose specific math is irrelevant to cache behaviour, but
// whose determinism is load-bearing for lineage recompute).
func mixVal(v uint64) uint64 { return splitmix64(v ^ 0xC2B2AE3D27D4EB4F) }

// GenPartition deterministically generates partition part of a source
// RDD: rows key/value pairs drawn from a splitmix64 stream seeded by
// (seed, rdd, part). skew is the probability a row's key comes from
// the hot set. The result is a pure function of its arguments — the
// engine's "HDFS": re-reading a source partition always yields the
// same bytes.
func GenPartition(seed int64, rdd, part, rows int, skew float64) []Row {
	if rows <= 0 {
		rows = DefaultRows
	}
	return genInto(make([]Row, rows), seed, rdd, part, skew)
}

// genInto is GenPartition over caller-owned rows: it fills all of out.
func genInto(out []Row, seed int64, rdd, part int, skew float64) []Row {
	if skew <= 0 {
		skew = DefaultSkew
	}
	if skew >= 1 {
		skew = 1
	}
	// Hot-key threshold on the raw 64-bit draw avoids float state in
	// the stream itself; the comparison is exact and deterministic.
	threshold := uint64(float64(^uint64(0)) * skew)
	x := splitmix64(uint64(seed)) ^ splitmix64(uint64(rdd)<<20|uint64(part))
	for i := range out {
		x = splitmix64(x)
		draw := x
		x = splitmix64(x)
		var key uint64
		if draw < threshold {
			key = x % hotKeys
		} else {
			key = x % keySpace
		}
		x = splitmix64(x)
		out[i] = Row{Key: key, Val: x}
	}
	return out
}

// EncodeRows renders rows in the canonical little-endian wire form the
// block manager stores and the digests cover.
func EncodeRows(rows []Row) []byte {
	out := make([]byte, len(rows)*rowBytes)
	for i, r := range rows {
		putRow(out[i*rowBytes:], r)
	}
	return out
}

// putRow writes r's canonical encoding over the first rowBytes of dst.
func putRow(dst []byte, r Row) {
	binary.LittleEndian.PutUint64(dst, r.Key)
	binary.LittleEndian.PutUint64(dst[8:], r.Val)
}

// DecodeRows parses the canonical encoding back into rows.
func DecodeRows(b []byte) ([]Row, error) {
	if len(b)%rowBytes != 0 {
		return nil, fmt.Errorf("exec: %d bytes is not a whole number of rows", len(b))
	}
	return decodeInto(make([]Row, len(b)/rowBytes), b), nil
}

// decodeInto is DecodeRows over caller-owned rows: it decodes the whole
// rows of b into the front of dst, which must hold them, and returns
// that front.
func decodeInto(dst []Row, b []byte) []Row {
	dst = dst[:len(b)/rowBytes]
	for i := range dst {
		dst[i].Key = binary.LittleEndian.Uint64(b[i*rowBytes:])
		dst[i].Val = binary.LittleEndian.Uint64(b[i*rowBytes+8:])
	}
	return dst
}

// DigestRows returns the FNV-64a digest of the canonical encoding —
// the unit the golden tests pin and the kill-parity leg compares.
func DigestRows(rows []Row) uint64 {
	h := fnv.New64a()
	var buf [rowBytes]byte
	for _, r := range rows {
		putRow(buf[:], r)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// combineDigests folds per-partition digests (in partition order) into
// one job- or RDD-level digest.
func combineDigests(parts []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range parts {
		binary.LittleEndian.PutUint64(buf[:], d)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// sortRows orders rows by (Key, Val) — the canonical order every
// shuffle output is materialized in, which is what makes reduce-side
// results independent of bucket arrival order.
func sortRows(rows []Row) {
	slices.SortFunc(rows, func(a, b Row) int {
		if c := cmp.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return cmp.Compare(a.Val, b.Val)
	})
}

// sortByKey orders rows whose keys are distinct (one row per key).
func sortByKey(rows []Row) {
	slices.SortFunc(rows, func(a, b Row) int { return cmp.Compare(a.Key, b.Key) })
}

// bucketOf returns the reduce partition a key shuffles to.
func bucketOf(key uint64, parts int) int {
	return int(splitmix64(key) % uint64(parts))
}

// dataSeed resolves the engine's generation seed for a graph built
// with the given workload seed.
func dataSeed(seed int64) int64 {
	if seed == 0 {
		return 1 // keep generation distinct from the zero stream
	}
	return seed
}

// narrowParents returns the range [lo, hi) of parent partitions that
// feed partition p of an RDD with childParts partitions through a
// narrow one-to-one-ish dependency. Same partition counts map
// identically; a repartitioning narrow edge gathers the proportional
// range (and a widening one duplicates the floor partition) — any fixed
// rule works, determinism is what matters.
func narrowParents(parentParts, childParts, p int) (lo, hi int) {
	lo = p * parentParts / childParts
	hi = (p + 1) * parentParts / childParts
	return lo, max(hi, lo+1)
}

// unionSlot maps partition p of a union RDD onto (dependency index,
// parent partition) under the concatenation layout dag.Union uses.
func unionSlot(deps []dag.Dependency, p int) (depIdx, parentPart int) {
	for i, d := range deps {
		if p < d.Parent.NumPartitions {
			return i, p
		}
		p -= d.Parent.NumPartitions
	}
	// Partition count drifted from the concatenation layout (possible
	// only through WithPartitions on a union, which no workload does);
	// fall back to the first parent modulo its width.
	return 0, p % deps[0].Parent.NumPartitions
}
