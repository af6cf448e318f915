package policy

import (
	"mrdspark/internal/block"
)

// GDS implements GreedyDual-Size (Cao & Irani, USENIX 1997), the
// classic size/cost-aware web-caching policy, as an additional
// DAG-oblivious baseline: each block carries credit
// H = L + cost/size, where L is an inflation value raised to the
// evicted block's credit on every eviction; the lowest-credit block
// goes first. With the per-byte restore cost our simulator charges,
// cost/size is constant — taken as 1 here — and GDS degenerates
// gracefully toward LRU-with-aging, which is exactly the regime the
// experiments probe.
type GDS struct{}

// NewGDS returns a GreedyDual-Size factory.
func NewGDS() *GDS { return &GDS{} }

// Name implements Factory.
func (*GDS) Name() string { return "GDS" }

// NewNodePolicy implements Factory.
func (*GDS) NewNodePolicy(int) Policy {
	return &gdsNode{credit: map[block.ID]float64{}}
}

type gdsNode struct {
	l      float64 // inflation
	credit map[block.ID]float64
}

func (n *gdsNode) OnAdd(id block.ID)    { n.credit[id] = n.l + 1 }
func (n *gdsNode) OnAccess(id block.ID) { n.credit[id] = n.l + 1 }
func (n *gdsNode) OnRemove(id block.ID) { delete(n.credit, id) }

func (n *gdsNode) Victim(evictable func(block.ID) bool) (block.ID, bool) {
	best, found := block.ID{}, false
	bestH := 0.0
	for id, h := range n.credit {
		if !evictable(id) {
			continue
		}
		if !found || h < bestH || (h == bestH && id.Less(best)) {
			best, bestH, found = id, h, true
		}
	}
	if found {
		// Inflate: future blocks must out-earn the evicted one.
		if h := n.credit[best]; h > n.l {
			n.l = h
		}
	}
	return best, found
}
