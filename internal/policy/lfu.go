package policy

import "mrdspark/internal/block"

// LFU evicts the block with the fewest accesses since insertion,
// breaking ties by least-recent use. Like FIFO it is a reference
// policy for tests and ablations rather than a paper baseline.
type LFU struct{}

// NewLFU returns the LFU policy factory.
func NewLFU() *LFU { return &LFU{} }

// Name implements Factory.
func (*LFU) Name() string { return "LFU" }

// NewNodePolicy implements Factory.
func (*LFU) NewNodePolicy(int) Policy {
	return &lfuNode{count: map[block.ID]int{}, list: NewRecency()}
}

type lfuNode struct {
	count map[block.ID]int
	list  *Recency // recency tiebreak
}

func (n *lfuNode) OnAdd(id block.ID) {
	n.count[id] = 0
	n.list.Touch(id)
}

func (n *lfuNode) OnAccess(id block.ID) {
	n.count[id]++
	n.list.Touch(id)
}

func (n *lfuNode) OnRemove(id block.ID) {
	delete(n.count, id)
	n.list.Remove(id)
}

func (n *lfuNode) Victim(evictable func(block.ID) bool) (block.ID, bool) {
	best, found := block.ID{}, false
	bestCount := 0
	// Walk from least- to most-recently used so that among equal
	// counts the least-recently-used block wins.
	for c := n.list.Oldest(); c != 0; c = n.list.Newer(c) {
		id := n.list.ID(c)
		if !evictable(id) {
			continue
		}
		if c := n.count[id]; !found || c < bestCount {
			best, bestCount, found = id, c, true
		}
	}
	return best, found
}
