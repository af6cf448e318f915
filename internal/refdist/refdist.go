// Package refdist computes reference distances from an application
// DAG: for every cached RDD, the schedule of stages (and jobs) at which
// its blocks will be read, and the distance from any point of execution
// to the next read. This is the metric at the heart of the MRD policy
// (paper §3.2, Definition 1) and of the Table 1 workload
// characterization.
package refdist

import (
	"fmt"
	"sort"

	"mrdspark/internal/dag"
)

// Infinite is the sentinel distance for a block with no remaining
// references. The paper represents infinity as a negative value
// (Algorithm 1, line 13); anything ordered after every finite distance
// works, and callers compare with IsInfinite.
const Infinite = -1

// IsInfinite reports whether d is the no-further-references sentinel.
func IsInfinite(d int) bool { return d < 0 }

// Ref is one read reference to a cached RDD: the stage (and its job)
// whose tasks consume the RDD's blocks.
type Ref struct {
	Stage int
	Job   int
}

// Less orders references by stage, breaking ties by job, so the order
// of a read schedule is a property of the references themselves and
// never of insertion order.
func (r Ref) Less(o Ref) bool {
	if r.Stage != o.Stage {
		return r.Stage < o.Stage
	}
	return r.Job < o.Job
}

// Profile holds the reference schedule of every cached RDD known so
// far. In recurring mode the profile covers the whole application DAG
// up front; in ad-hoc mode jobs are added one at a time as they are
// submitted, exactly as the paper's AppProfiler receives them from the
// DAGScheduler.
type Profile struct {
	reads    map[int][]Ref    // rddID -> reads sorted by (stage, job)
	creation map[int]Ref      // rddID -> stage/job of first compute
	created  dag.Materialized // tracks creation while scanning stages in order
	// version counts mutations; incremental consumers (the manager's
	// MRD_Table cursors) use it to detect profile growth cheaply.
	version int
}

// NewProfile returns an empty profile ready for AddJob calls (ad-hoc
// mode).
func NewProfile() *Profile {
	return &Profile{
		reads:    map[int][]Ref{},
		creation: map[int]Ref{},
	}
}

// FromGraph builds the complete application profile (recurring mode):
// every job's references are known before execution starts.
func FromGraph(g *dag.Graph) *Profile {
	p := NewProfile()
	for _, j := range g.Jobs {
		p.AddJob(j)
	}
	return p
}

// AddJob folds one job's executed stages into the profile. Jobs must
// be added in submission order; the profile tracks which cached RDDs
// have been materialized so each stage's reads are its nearest cached
// frontier (the same truncation Spark's iterator performs) and first
// computations are recorded as creations, not reads.
func (p *Profile) AddJob(j *dag.Job) {
	p.version++
	var resort []int
	for _, s := range j.NewStages {
		reads, creates := p.created.Frontier(s)
		for _, r := range reads {
			rs := p.reads[r.ID]
			ref := Ref{Stage: s.ID, Job: j.ID}
			// Jobs arrive in submission order and stage IDs grow within
			// a job, so appends almost always keep the schedule sorted;
			// only an out-of-order arrival forces a re-sort below. The
			// old code re-sorted every RDD's schedule on every AddJob —
			// and with a non-stable sort comparing stages only, which
			// left the order of same-stage refs unspecified.
			if n := len(rs); n > 0 && ref.Less(rs[n-1]) {
				resort = append(resort, r.ID)
			}
			p.reads[r.ID] = append(rs, ref)
		}
		for _, r := range creates {
			p.created.Mark(r.ID)
			p.creation[r.ID] = Ref{Stage: s.ID, Job: j.ID}
		}
	}
	for _, id := range resort {
		rs := p.reads[id]
		sort.SliceStable(rs, func(a, b int) bool { return rs[a].Less(rs[b]) })
	}
}

// Version returns the profile's mutation counter.
func (p *Profile) Version() int { return p.version }

// RDDs returns the IDs of every cached RDD the profile has seen, in
// ascending order.
func (p *Profile) RDDs() []int {
	ids := make([]int, 0, len(p.creation))
	for id := range p.creation {
		ids = append(ids, id)
	}
	for id := range p.reads {
		if _, ok := p.creation[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// Reads returns the read references of the RDD in stage order. The
// returned slice is owned by the profile; callers must not modify it.
func (p *Profile) Reads(rddID int) []Ref { return p.reads[rddID] }

// Creation returns the stage/job that first computes the RDD and
// whether the profile knows it.
func (p *Profile) Creation(rddID int) (Ref, bool) {
	r, ok := p.creation[rddID]
	return r, ok
}

// NextRead returns the first read of the RDD at or after curStage.
func (p *Profile) NextRead(rddID, curStage int) (Ref, bool) {
	reads := p.reads[rddID]
	i := sort.Search(len(reads), func(i int) bool { return reads[i].Stage >= curStage })
	if i == len(reads) {
		return Ref{}, false
	}
	return reads[i], true
}

// StageDistance returns the stage reference distance of the RDD at
// curStage: the gap to its next read, or Infinite when no reads
// remain. A reference in the currently executing stage has distance 0.
func (p *Profile) StageDistance(rddID, curStage int) int {
	next, ok := p.NextRead(rddID, curStage)
	if !ok {
		return Infinite
	}
	return next.Stage - curStage
}

// StageDistanceConsumed is StageDistance with the currently executing
// stage's reference already consumed: "as the application execution
// moves beyond a point where there is a reference, that value is
// deleted, and the next lowest one is used" (paper §4.1). Policies use
// this form — a stage's reads resolve when the stage starts, so for
// eviction purposes a current-stage reference is already in the past.
func (p *Profile) StageDistanceConsumed(rddID, curStage int) int {
	next, ok := p.NextRead(rddID, curStage+1)
	if !ok {
		return Infinite
	}
	return next.Stage - curStage
}

// Equal reports whether two profiles record identical schedules: the
// property that ad-hoc submission, job by job, ends at the recurring
// whole-graph profile.
func (p *Profile) Equal(q *Profile) bool {
	if len(p.creation) != len(q.creation) || len(p.reads) != len(q.reads) {
		return false
	}
	for id, r := range p.creation {
		if q.creation[id] != r {
			return false
		}
	}
	for id, reads := range p.reads {
		qr := q.reads[id]
		if len(qr) != len(reads) {
			return false
		}
		for i := range reads {
			if reads[i] != qr[i] {
				return false
			}
		}
	}
	return true
}

// String summarizes the profile for debugging.
func (p *Profile) String() string {
	return fmt.Sprintf("Profile{%d cached RDDs, %d with reads}", len(p.creation), len(p.reads))
}

// Stats are the Table 1 distance characteristics of a workload: the
// average and maximum gaps, in jobs and in stages, between consecutive
// accesses (creation included) to each cached RDD. Averages come in
// two granularities: per reference event (every gap weighs equally)
// and per RDD (each RDD's mean gap weighs equally, so sparsely
// referenced long-gap RDDs count as much as hot ones — the
// granularity that reproduces Table 1's numbers).
type Stats struct {
	AvgJobDistance   float64 // per-RDD average (Table 1)
	MaxJobDistance   int
	AvgStageDistance float64 // per-RDD average (Table 1)
	MaxStageDistance int

	EventAvgJobDistance   float64 // per-event average
	EventAvgStageDistance float64
	Gaps                  int // number of consecutive-access pairs
}

// Stats computes the distance characteristics over the whole profile.
// Workloads whose cached RDDs are never re-read report zeros, matching
// the paper's HiBench rows.
func (p *Profile) Stats() Stats {
	var st Stats
	var stageSum, jobSum, n int
	var rddStage, rddJob float64
	rdds := 0
	for _, id := range p.RDDs() {
		events := make([]Ref, 0, len(p.reads[id])+1)
		if c, ok := p.creation[id]; ok {
			events = append(events, c)
		}
		events = append(events, p.reads[id]...)
		var sSum, jSum, k int
		for i := 1; i < len(events); i++ {
			sd := events[i].Stage - events[i-1].Stage
			jd := events[i].Job - events[i-1].Job
			sSum += sd
			jSum += jd
			k++
			if sd > st.MaxStageDistance {
				st.MaxStageDistance = sd
			}
			if jd > st.MaxJobDistance {
				st.MaxJobDistance = jd
			}
		}
		if k > 0 {
			rddStage += float64(sSum) / float64(k)
			rddJob += float64(jSum) / float64(k)
			rdds++
			stageSum += sSum
			jobSum += jSum
			n += k
		}
	}
	st.Gaps = n
	if n > 0 {
		st.EventAvgStageDistance = float64(stageSum) / float64(n)
		st.EventAvgJobDistance = float64(jobSum) / float64(n)
	}
	if rdds > 0 {
		st.AvgStageDistance = rddStage / float64(rdds)
		st.AvgJobDistance = rddJob / float64(rdds)
	}
	return st
}
