// Package exec is the real data plane: a master/worker execution
// runtime that actually runs the DAG's operators over deterministically
// generated partitioned data, with a live block manager — cache
// accounting driven by the configured policy, spill-to-disk under
// pressure, shuffle write/read between stages, and lineage recompute
// on worker loss — standing where the simulator only models one. Like
// Spark's deserialized storage levels, it keeps cached blocks and map
// outputs as rows, and a task reads a cached block in place. The
// cache decisions at every stage boundary are made by a
// service.Advisor the engine drives (DESIGN.md §15); the engine moves
// the real rows after it. An executed run's decision stream is
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
// fault RNG and the client's retry jitter use): a bijective avalanche
// over one 64-bit word.
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
	// Hot-key threshold on the raw 64-bit draw avoids float state in
	// the stream itself; the comparison is exact and deterministic. At
	// skew 1 the product is 2^64, which no uint64 holds (the conversion's
	// result is the platform's choice): every row is hot without it.
	threshold := ^uint64(0)
	if skew < 1 {
		threshold = uint64(float64(^uint64(0)) * skew)
	}
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
// digests are defined over. The engine stores rows, not this form: it is
// the contract the digests and the checks outside the package share.
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

// FNV-64a's parameters (hash/fnv's, which combineDigests still uses).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvWord advances one FNV-64a chain over the eight bytes of w in
// little-endian order — what hashing a canonically encoded word does.
func fnvWord(h, w uint64) uint64 {
	// Two expressions, not eight statements: those cost the inliner 83
	// of its budget of 80.
	h = ((((h^w&0xff)*fnvPrime^w>>8&0xff)*fnvPrime^w>>16&0xff)*fnvPrime ^ w>>24&0xff) * fnvPrime
	return ((((h^w>>32&0xff)*fnvPrime^w>>40&0xff)*fnvPrime^w>>48&0xff)*fnvPrime ^ w>>56) * fnvPrime
}

// lanes is how many partitions a worker digests at once. The digest
// contract fixes each partition's chain — FNV-64a over its canonical
// encoding, sixteen dependent multiplies a row — not how many chains are
// in flight: they share nothing, so the processor overlaps them in its
// multiplier pipeline. One chain costs 20 ns a row, two in lockstep 10,
// four 5; end to end, four against two read exec-reduce 16.4 against
// 14.2 op/s (medians of ten alternating pairs, CHANGES.md PR 24) with
// the same bytes allocated.
const lanes = 4

// digestLanes digests up to lanes partitions at once (absent ones are
// empty, and digest as such): all four chains in lockstep as far as the
// shortest goes, then each half's two (digestPair).
func digestLanes(p [lanes][]Row) (h [lanes]uint64) {
	a, b, c, d := p[0], p[1], p[2], p[3]
	ha, hb, hc, hd := fnvOffset, fnvOffset, fnvOffset, fnvOffset
	n := min(len(a), len(b), len(c), len(d))
	for i := 0; i < n; i++ {
		ha, hb, hc, hd = fnvWord(ha, a[i].Key), fnvWord(hb, b[i].Key), fnvWord(hc, c[i].Key), fnvWord(hd, d[i].Key)
		ha, hb, hc, hd = fnvWord(ha, a[i].Val), fnvWord(hb, b[i].Val), fnvWord(hc, c[i].Val), fnvWord(hd, d[i].Val)
	}
	h[0], h[1] = digestPair(ha, hb, a[n:], b[n:])
	h[2], h[3] = digestPair(hc, hd, c[n:], d[n:])
	return h
}

// digestPair carries two chains on over a and b: in lockstep as far as
// the shorter goes, then what is left of the longer alone.
func digestPair(ha, hb uint64, a, b []Row) (uint64, uint64) {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		ha, hb = fnvWord(ha, a[i].Key), fnvWord(hb, b[i].Key)
		ha, hb = fnvWord(ha, a[i].Val), fnvWord(hb, b[i].Val)
	}
	for _, r := range a[n:] {
		ha = fnvWord(fnvWord(ha, r.Key), r.Val)
	}
	for _, r := range b[n:] {
		hb = fnvWord(fnvWord(hb, r.Key), r.Val)
	}
	return ha, hb
}

// DigestRows returns the FNV-64a digest of the canonical encoding —
// the unit the golden tests pin and the kill-parity leg compares.
func DigestRows(rows []Row) uint64 {
	return digestLanes([lanes][]Row{rows})[0]
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

// radixSmall is the input size below which radixByKey is a comparison
// sort (an insertion sort, at these sizes): under it three passes'
// histograms cost more than they save. Measured on the workloads' keys:
// 12 rows 133 ns sorted by comparison against 470 by radix, 24 rows 480
// against 520, 28 rows 640 against 575, 39 rows — SCC/32's median
// reduce input — 1 060 against 660.
const radixSmall = 24

// radixByKey orders rows by key, stably, and returns them — in rows
// itself or in tmp, a scratch at least as long, whichever the last pass
// wrote. It is a least-significant-digit radix sort over the 8-bit
// digits on which the keys differ (one sweep's OR and AND of the keys
// tell which): each pass is a histogram, its prefix sums, and a scatter
// into the other buffer that keeps equal digits in order — which is
// what lets a later pass build on an earlier one. The workloads' 2^20
// key space takes three passes; equal keys take none.
func radixByKey(rows, tmp []Row) []Row {
	if len(rows) < radixSmall {
		slices.SortStableFunc(rows, func(a, b Row) int { return cmp.Compare(a.Key, b.Key) })
		return rows
	}
	or, and := uint64(0), ^uint64(0)
	for i := range rows {
		or |= rows[i].Key
		and &= rows[i].Key
	}
	src, dst := rows, tmp[:len(rows)]
	for shift := 0; shift < 64; shift += 8 {
		if (or^and)>>shift&0xff == 0 {
			continue
		}
		var next [256]int32
		for i := range src {
			next[src[i].Key>>shift&0xff]++
		}
		at := int32(0)
		for d := range next {
			next[d], at = at, at+next[d]
		}
		for _, r := range src {
			d := r.Key >> shift & 0xff
			dst[next[d]] = r
			next[d]++
		}
		src, dst = dst, src
	}
	return src
}

// sortRows orders rows by (Key, Val) — the canonical order every
// shuffle output is materialized in, which is what makes reduce-side
// results independent of bucket arrival order — and returns them, in
// rows or in an arena scratch (see radixByKey).
func sortRows(mem *arena, rows []Row) []Row {
	tmp := mem.alloc(len(rows))
	out := radixByKey(rows, tmp)
	if len(out) == 0 || &out[0] != &tmp[0] {
		mem.trim(tmp, 0)
	}
	for i, j := 0, 0; i < len(out); i = j {
		for j = i + 1; j < len(out) && out[j].Key == out[i].Key; j++ {
		}
		if j-i > 1 {
			slices.SortFunc(out[i:j], func(a, b Row) int { return cmp.Compare(a.Val, b.Val) })
		}
	}
	return out
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
