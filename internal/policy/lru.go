package policy

import "mrdspark/internal/block"

// LRU is Spark's default cache policy (paper §2): evict the block that
// has gone the longest without access. It is DAG-oblivious; each node
// decides independently from local recency.
type LRU struct{}

// NewLRU returns the LRU policy factory.
func NewLRU() *LRU { return &LRU{} }

// Name implements Factory.
func (*LRU) Name() string { return "LRU" }

// NewNodePolicy implements Factory.
func (*LRU) NewNodePolicy(int) Policy { return &lruNode{list: NewRecency()} }

type lruNode struct {
	list *Recency
}

func (n *lruNode) OnAdd(id block.ID)    { n.list.Touch(id) }
func (n *lruNode) OnAccess(id block.ID) { n.list.Touch(id) }
func (n *lruNode) OnRemove(id block.ID) { n.list.Remove(id) }
func (n *lruNode) Reserve(blocks int)   { n.list.Reserve(blocks) }

func (n *lruNode) Victim(evictable func(block.ID) bool) (block.ID, bool) {
	return n.list.Victim(evictable)
}

// FIFO evicts in insertion order regardless of accesses. It is a test
// and ablation reference, not a paper baseline.
type FIFO struct{}

// NewFIFO returns the FIFO policy factory.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Factory.
func (*FIFO) Name() string { return "FIFO" }

// NewNodePolicy implements Factory.
func (*FIFO) NewNodePolicy(int) Policy { return &fifoNode{list: NewRecency()} }

type fifoNode struct {
	list *Recency
}

func (n *fifoNode) OnAdd(id block.ID)    { n.list.Touch(id) }
func (n *fifoNode) OnAccess(block.ID)    {}
func (n *fifoNode) OnRemove(id block.ID) { n.list.Remove(id) }
func (n *fifoNode) Reserve(blocks int)   { n.list.Reserve(blocks) }

func (n *fifoNode) Victim(evictable func(block.ID) bool) (block.ID, bool) {
	return n.list.Victim(evictable)
}
