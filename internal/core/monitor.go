package core

import (
	"slices"

	"mrdspark/internal/block"
	"mrdspark/internal/obs"
	"mrdspark/internal/policy"
	"mrdspark/internal/refdist"
)

// CacheMonitor is the distributed component deployed on each worker
// node (§4.2): it reads the reference distances the manager maintains
// (getReferenceDistance), and when the node's store needs space it
// evicts the resident block with the greatest distance (evictBlock),
// infinite-distance blocks first. With MRD eviction disabled the
// monitor reproduces Spark's default LRU behaviour, giving the paper's
// prefetch-only configuration.
//
// The store's OnAdd/OnRemove notifications are the monitor's half of
// Table 2's reportCacheStatus: the blocks it tracks are exactly the
// node's memory-resident set, and each gain or loss is reported to the
// manager's per-RDD count as it happens.
//
// The table keeps one distance per RDD, and a node's blocks belong to a
// handful of RDDs (at a victim call in a D4 pass, 6.5 RDDs against 31
// resident blocks), so the monitor also counts its blocks per RDD: the
// node's top distance is a scan of the RDDs it holds, and the victim
// walk stops at the first block that has it.
type CacheMonitor struct {
	mgr   *Manager
	node  int
	order *policy.Recency // the node's resident blocks, LRU to MRU
	// count holds, dense by rddID, how many of the node's blocks belong
	// to each RDD; rdds lists the RDDs whose count is nonzero, in no
	// particular order.
	count []int32
	rdds  []int
}

func newCacheMonitor(m *Manager, node int) *CacheMonitor {
	return &CacheMonitor{mgr: m, node: node, order: policy.NewRecency(),
		count: make([]int32, len(m.graph.RDDs))}
}

// reset clears local state after a node failure; the manager re-issues
// the (shared) table.
func (c *CacheMonitor) reset() {
	for cur := c.order.Oldest(); cur != 0; cur = c.order.Newer(cur) {
		c.report(c.order.ID(cur), -1)
	}
	c.order = policy.NewRecency()
	for _, r := range c.rdds {
		c.count[r] = 0
	}
	c.rdds = c.rdds[:0]
}

// report tells the manager of one block gained or lost. A monitor that
// NewNodePolicy has replaced no longer speaks for its node.
func (c *CacheMonitor) report(id block.ID, delta int32) {
	if m := c.mgr; m.monitors[c.node] == c {
		m.coverHeld(id.RDD + 1)
		m.held[id.RDD] += delta
	}
}

// OnAdd implements policy.Policy.
func (c *CacheMonitor) OnAdd(id block.ID) {
	if !c.order.Touch(id) {
		return
	}
	c.report(id, 1)
	if id.RDD >= len(c.count) {
		// An ad-hoc job brought an RDD the graph lacked at deployment.
		c.count = append(c.count, make([]int32, id.RDD+1-len(c.count))...)
	}
	if c.count[id.RDD]++; c.count[id.RDD] == 1 {
		c.rdds = append(c.rdds, id.RDD)
	}
}

// Reserve implements policy.Reserver. The list of RDDs with blocks
// here is sized too: it holds at most one entry a block.
func (c *CacheMonitor) Reserve(blocks int) {
	c.order.Reserve(blocks)
	if n := min(blocks, len(c.count)); cap(c.rdds) < n {
		c.rdds = slices.Grow(c.rdds, n-len(c.rdds))
	}
}

// OnAccess implements policy.Policy.
func (c *CacheMonitor) OnAccess(id block.ID) { c.order.Promote(id) }

// OnRemove implements policy.Policy.
func (c *CacheMonitor) OnRemove(id block.ID) {
	if !c.order.Remove(id) {
		return
	}
	c.report(id, -1)
	if c.count[id.RDD]--; c.count[id.RDD] == 0 {
		i := slices.Index(c.rdds, id.RDD)
		last := len(c.rdds) - 1
		c.rdds[i] = c.rdds[last]
		c.rdds = c.rdds[:last]
	}
}

// topDistance returns the greatest distance among the RDDs the node
// holds, infinite counting as greatest: no resident block can outrank
// it.
func (c *CacheMonitor) topDistance() (top int, inf bool) {
	for _, r := range c.rdds {
		d := c.mgr.distance(r)
		if refdist.IsInfinite(d) {
			return d, true
		}
		top = max(top, d)
	}
	return top, false
}

// Victim implements policy.Policy. Under MRD eviction it returns the
// evictable block with the greatest reference distance — infinite
// distances are greatest of all — breaking distance ties by least
// recent use. Under prefetch-only configurations it returns the plain
// LRU victim; so does a monitor whose re-issued table has not yet
// propagated after a node failure (graceful degradation: recency is
// wrong less often than distances from a table that no longer exists).
func (c *CacheMonitor) Victim(evictable func(id block.ID) bool) (block.ID, bool) {
	if stale := c.mgr.tableStale(c.node); stale || c.mgr.opts.DisableEviction {
		if stale {
			c.mgr.stats.StaleFallbacks++
		}
		id, ok := c.order.Victim(evictable)
		if ok && stale {
			c.mgr.bus.Emit(obs.BlockEv(obs.KindStaleFallback, c.node, id, 0))
		} else if ok {
			c.mgr.bus.Emit(obs.BlockEv(obs.KindEvictVerdict, c.node, id, 0).
				WithVerdict("lru"))
		}
		return id, ok
	}
	best, found := block.ID{}, false
	bestDist := 0
	bestInf := false
	lru := c.mgr.opts.TieBreak == TieLRU
	var top int
	var topInf bool
	if lru {
		top, topInf = c.topDistance()
	}
	// Walk LRU -> MRU so the least recently used block wins among
	// equal distances under the default tie-break; the optional
	// size-aware tie-breaks (§3.3's future work) override it. The
	// filter is asked only about a block that would change the answer.
	d, inf, dRDD := 0, false, -1
	for cur := c.order.Oldest(); cur != 0; cur = c.order.Newer(cur) {
		id := c.order.ID(cur)
		if id.RDD != dRDD {
			// The distance is the RDD's: look it up when the RDD changes.
			d, dRDD = c.mgr.distance(id.RDD), id.RDD
			inf = refdist.IsInfinite(d)
		}
		beats := !found || inf && !bestInf || !inf && !bestInf && d > bestDist
		tie := !beats && !lru && inf == bestInf && (inf || d == bestDist)
		if !beats && !tie || !evictable(id) || tie && !c.tieBeats(id, best) {
			continue
		}
		best, bestDist, bestInf, found = id, d, inf, true
		if lru && (bestInf || !topInf && bestDist == top) {
			// Nothing resident outranks the node's top distance, and
			// the LRU-first walk already fixed the tiebreak. A filter
			// that rejects every block at the top walks to the end.
			break
		}
	}
	if found {
		c.mgr.bus.Emit(obs.BlockEv(obs.KindEvictVerdict, c.node, best, 0).
			WithValue(int64(bestDist)).WithVerdict("mrd"))
	}
	return best, found
}

// tieBeats reports whether the candidate should replace the incumbent
// among equal-distance blocks under the configured tie-break. The LRU
// default never replaces: the LRU-first walk already found the right
// block.
func (c *CacheMonitor) tieBeats(id, best block.ID) bool {
	switch c.mgr.opts.TieBreak {
	case TieLargestFirst:
		return c.blockSize(id) > c.blockSize(best)
	case TieSmallestFirst:
		return c.blockSize(id) < c.blockSize(best)
	case TieCheapestRestore:
		return c.restoreCost(id) < c.restoreCost(best)
	default:
		return false
	}
}

// restoreCost estimates the price of getting the block back: a disk
// read (microseconds at a nominal 40 MB/s) for restorable levels, the
// lineage recompute estimate for MEMORY_ONLY.
func (c *CacheMonitor) restoreCost(id block.ID) int64 {
	if id.RDD < 0 || id.RDD >= len(c.mgr.graph.RDDs) {
		return 0
	}
	r := c.mgr.graph.RDDs[id.RDD]
	if r.Level == block.MemoryAndDisk {
		return r.PartSize * 1_000_000 / (40 << 20)
	}
	return c.mgr.graph.RestoreCost(r)
}

func (c *CacheMonitor) blockSize(id block.ID) int64 {
	if id.RDD < 0 || id.RDD >= len(c.mgr.graph.RDDs) {
		return 0
	}
	return c.mgr.graph.RDDs[id.RDD].PartSize
}

// Distance exposes the monitor's view of a block's current reference
// distance (Table 2's getReferenceDistance).
func (c *CacheMonitor) Distance(id block.ID) int { return c.mgr.distance(id.RDD) }

// AllowPrefetchEviction implements policy.PrefetchArbiter: a prefetch
// arrival may evict a resident block only when that block's reference
// distance is strictly larger (infinite counting as largest). Without
// the check, equal-distance blocks displace each other in an endless
// churn — the counter-productive case §4.4 describes.
func (c *CacheMonitor) AllowPrefetchEviction(incoming block.Info, victim block.ID) bool {
	if c.mgr.tableStale(c.node) {
		// No usable distances: refuse prefetch-triggered evictions
		// rather than displace resident data on stale information.
		return false
	}
	vd := c.mgr.distance(victim.RDD)
	if refdist.IsInfinite(vd) {
		return true
	}
	id := c.mgr.distance(incoming.ID.RDD)
	if refdist.IsInfinite(id) {
		return false
	}
	return vd > id
}
