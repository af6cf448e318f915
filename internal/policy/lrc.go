package policy

import (
	"mrdspark/internal/block"
	"mrdspark/internal/dag"
	"mrdspark/internal/refdist"
)

// LRC implements Least Reference Count (Yu et al., INFOCOM 2017; paper
// §2): every block carries the number of not-yet-consumed downstream
// references derived from the DAG, the count decreases as references
// are consumed, and the block with the lowest remaining count is
// evicted. The paper's critique — which MRD addresses — is that a block
// with many references far in the future keeps a high count and
// wrongly escapes eviction.
//
// The reference table is shared across the cluster; each node breaks
// count ties by local recency.
type LRC struct {
	profile  *refdist.Profile
	adHoc    bool
	curStage int
}

// NewLRC returns an LRC factory with the whole-application reference
// profile known up front (the recurring-application setting).
func NewLRC(g *dag.Graph) *LRC {
	return &LRC{profile: refdist.FromGraph(g)}
}

// NewLRCAdHoc returns an LRC factory that learns the DAG one job at a
// time via OnJobSubmit.
func NewLRCAdHoc() *LRC {
	return &LRC{profile: refdist.NewProfile(), adHoc: true}
}

// Name implements Factory.
func (l *LRC) Name() string { return "LRC" }

// OnJobSubmit implements JobObserver: in ad-hoc mode the profile grows
// as jobs are submitted.
func (l *LRC) OnJobSubmit(j *dag.Job) {
	if l.adHoc {
		l.profile.AddJob(j)
	}
}

// OnStageStart implements StageObserver: advancing the stage pointer
// is what consumes references and decrements counts.
func (l *LRC) OnStageStart(stageID, _ int) { l.curStage = stageID }

// remaining returns the block's not-yet-consumed reference count. The
// currently executing stage's reference is treated as consumed — a
// stage's reads resolve when it starts, and LRC decrements the count
// "after each reference".
func (l *LRC) remaining(id block.ID) int {
	reads := l.profile.Reads(id.RDD)
	n := 0
	for _, r := range reads {
		if r.Stage > l.curStage {
			n++
		}
	}
	return n
}

// NewNodePolicy implements Factory.
func (l *LRC) NewNodePolicy(int) Policy {
	return &lrcNode{shared: l, list: NewRecency()}
}

type lrcNode struct {
	shared *LRC
	list   *Recency
}

func (n *lrcNode) OnAdd(id block.ID)    { n.list.Touch(id) }
func (n *lrcNode) OnAccess(id block.ID) { n.list.Touch(id) }
func (n *lrcNode) OnRemove(id block.ID) { n.list.Remove(id) }
func (n *lrcNode) Reserve(blocks int)   { n.list.Reserve(blocks) }

func (n *lrcNode) Victim(evictable func(block.ID) bool) (block.ID, bool) {
	best, found := block.ID{}, false
	bestCount := 0
	// Least-recently-used wins ties among equal counts.
	for c := n.list.Oldest(); c != 0; c = n.list.Newer(c) {
		id := n.list.ID(c)
		if !evictable(id) {
			continue
		}
		if c := n.shared.remaining(id); !found || c < bestCount {
			best, bestCount, found = id, c, true
			if c == 0 {
				return best, true // nothing beats a dead block
			}
		}
	}
	return best, found
}
