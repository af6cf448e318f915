// Package spec is the statement of the paper's Algorithm 1 (PAPER §4)
// and of the store accounting under it, written to be checked by eye:
// slices and linear scans, every reference distance recomputed from the
// dag.Graph at every stage boundary, its own walk for what a stage
// reads, a slice for recency. It shares no code with what it specifies
// (internal/core, refdist, cluster, dag.Materialized) and imports only
// the graph and block types; internal/check holds the Advisor to it
// decision for decision (TestSpecMatchesAdvisor, FuzzAdvisorSchedule).
//
// It specifies what core.Options{} plus DisablePrefetch, DisableEviction,
// Metric and ad-hoc mode can ask of the Advisor. Outside it: threshold
// values other than §4.3's 25 %, the size-aware tie-breaks, the dynamic
// controller, stale-table windows, the §4.4 pre-check, and the
// Advisor's protocol errors (drive the Model with calls the Advisor
// accepted). Where PAPER §4.2–4.4 leaves a choice open the choice made
// is a numbered "deviation N" comment matching EXPERIMENTS.md's
// "Deviations and why".
package spec

import (
	"math"
	"slices"

	"mrdspark/internal/block"
	"mrdspark/internal/dag"
)

// Inf is the distance of an RDD no known job reads again: it orders
// after every finite distance (Algorithm 1, line 13).
const Inf = math.MaxInt

// Config is the modeled cluster and the MRD variant.
type Config struct {
	Nodes      int
	CacheBytes int64 // per node
	NoPrefetch bool  // the "eviction-only" bars of Fig 4
	NoEviction bool  // the "prefetch-only" bars: victims by recency
	JobMetric  bool  // distances in jobs, not stages (§5.7)
	AdHoc      bool  // jobs are known only once submitted (§4.1)
}

// Decision is one cache action, in issue order: "purge", "evict",
// "prefetch", "prefetch-evict" or "prefetch-drop".
type Decision struct {
	Kind  string
	Node  int
	Block block.ID
}

// Advice is what one stage boundary decided and what the stage then did.
type Advice struct {
	Stage, Job                             int
	Decisions                              []Decision
	Hits, Misses, Promotes, Recomputes     int
	Inserts, Evictions, Purged, Prefetches int
}

// node is one worker: memory least recently used first, and its disk.
type node struct {
	mem  []block.Info
	disk []block.ID
}

// Model is one application's session; drive it like service.Advisor.
type Model struct {
	g          *dag.Graph
	cfg        Config
	nodes      []node
	created    []int // cached RDDs some advanced stage has materialized
	submitted  int   // jobs submitted so far
	stage, job int   // the boundary in progress
	dist       []int // by RDD id: distance to the next read, at this boundary
	dead       []bool
	adv        Advice
	// Evicting, when set, sees every demand eviction before it happens.
	Evicting func(node int, victim block.ID)
}

// New returns a session over the application DAG with empty caches.
func New(g *dag.Graph, cfg Config) *Model {
	return &Model{g: g, cfg: cfg, nodes: make([]node, cfg.Nodes)}
}

// SubmitJob makes the job's DAG known (Table 2's parseDAG).
func (m *Model) SubmitJob(job int) { m.submitted = job + 1 }

// FailNode loses a worker: its memory and its disk are empty, and the
// monitor that replaces it starts with no recency (§4.4).
func (m *Model) FailNode(n int) { m.nodes[n] = node{} }

// Distance is the RDD's reference distance at the last boundary.
func (m *Model) Distance(rdd int) int { return m.dist[rdd] }

// Resident lists the node's memory, least recently used first.
func (m *Model) Resident(n int) []block.Info { return m.nodes[n].mem }

// frontier is the read-boundary rule: walking back from the stage's
// target through narrow dependencies, a cached RDD that already exists
// is read and ends the walk; what lies short of it is computed, and the
// cached RDDs among that are created. Both lists are in RDD-id order.
func frontier(s *dag.Stage, exists []int) (reads, creates []*dag.RDD) {
	var seen []*dag.RDD
	var walk func(r *dag.RDD)
	walk = func(r *dag.RDD) {
		if slices.Contains(seen, r) {
			return
		}
		seen = append(seen, r)
		if r.Cached && slices.Contains(exists, r.ID) {
			reads = append(reads, r)
			return
		}
		if r.Cached {
			creates = append(creates, r)
		}
		for _, d := range r.Deps {
			if d.Type == dag.Narrow {
				walk(d.Parent)
			}
		}
	}
	walk(s.Target)
	byID := func(a, b *dag.RDD) int { return a.ID - b.ID }
	slices.SortFunc(reads, byID)
	slices.SortFunc(creates, byID)
	return reads, creates
}

// measure recomputes every distance from the graph (Definition 1): the
// known jobs' stages in execution order, each reading its frontier over
// what the stages before it created. In jobs, every read of the current
// job is at distance 0.
//
// deviation 3: in stages, a read by the boundary's own stage is already
// consumed (§4.1: "that value is deleted, and the next lowest one is
// used") and is no distance — but it keeps the RDD alive, so that the
// purge never takes a block the stage is about to read.
func (m *Model) measure() {
	m.dist, m.dead = make([]int, len(m.g.RDDs)), make([]bool, len(m.g.RDDs))
	for i := range m.dist {
		m.dist[i], m.dead[i] = Inf, true
	}
	var exists []int
	for _, j := range m.g.Jobs {
		if m.cfg.AdHoc && j.ID >= m.submitted {
			break // not yet known: its reads are no distance to anything
		}
		for _, s := range j.NewStages {
			reads, creates := frontier(s, exists)
			for _, r := range reads {
				at, now := s.ID, m.stage
				if m.cfg.JobMetric {
					at, now = j.ID, m.job
				}
				if at >= now {
					m.dead[r.ID] = false
				}
				if at > now || m.cfg.JobMetric && at == now {
					m.dist[r.ID] = min(m.dist[r.ID], at-now)
				}
			}
			for _, r := range creates {
				exists = append(exists, r.ID)
			}
		}
	}
}

// Advance is one stage boundary: newReferenceDistance, the purge and
// prefetch phases of Algorithm 1, then the stage itself.
func (m *Model) Advance(stage int) Advice {
	for _, j := range m.g.Jobs {
		for _, s := range j.NewStages {
			if s.ID == stage {
				m.stage, m.job, m.adv = stage, j.ID, Advice{Stage: stage, Job: j.ID}
				m.measure()
				if !m.cfg.NoEviction || !m.cfg.NoPrefetch {
					m.purge()
				}
				if !m.cfg.NoPrefetch {
					m.prefetch()
				}
				m.run(s)
			}
		}
	}
	return m.adv
}

// purge is lines 13–17: every block of an RDD nothing will read again
// leaves memory on every node, in (RDD, partition) order.
func (m *Model) purge() {
	for _, r := range m.g.RDDs {
		for p := 0; m.dead[r.ID] && p < r.NumPartitions; p++ {
			if b := r.BlockInfo(p); m.holds(b) {
				m.remove(b, "purge")
				m.adv.Purged++
			}
		}
	}
}

// prefetch is lines 18–29. The candidates are the blocks, absent from
// their node's memory when the phase begins, of the RDDs whose next
// read is at least one stage away (distance 0 is the running stage's
// own demand read); each node takes its own in (distance, RDD,
// partition) order. One that fits in free memory is ordered; one that
// does not is ordered too — it will evict on arrival — while more than
// a quarter of the node's memory is free (§4.3). Only a block with a
// disk copy can be ordered.
//
// deviation 4: an order spends its bytes of the free memory the node
// reported whether or not the arrival is then accepted — the manager
// cannot see an asynchronous arrival's verdict, and the paper is silent.
func (m *Model) prefetch() {
	cands := make([][]block.Info, len(m.nodes))
	for _, r := range m.g.RDDs {
		for p := 0; m.dist[r.ID] != Inf && m.dist[r.ID] >= 1 && p < r.NumPartitions; p++ {
			if b := r.BlockInfo(p); !m.holds(b) {
				cands[m.home(b.ID)] = append(cands[m.home(b.ID)], b)
			}
		}
	}
	for n := range m.nodes {
		slices.SortStableFunc(cands[n], func(a, b block.Info) int { return m.dist[a.ID.RDD] - m.dist[b.ID.RDD] })
		free := m.cfg.CacheBytes - m.used(n)
		for _, b := range cands[n] {
			forced := b.Size > free
			if b.Size <= m.cfg.CacheBytes && !(forced && free <= m.cfg.CacheBytes/4) && slices.Contains(m.nodes[n].disk, b.ID) {
				m.arrive(n, b)
				free = max(free-b.Size, 0)
			}
		}
	}
}

// arrive lands a prefetched block. It plans every eviction it needs
// before making any, and is dropped, evicting nothing, unless each
// victim's distance is strictly larger than its own.
//
// deviation 4: §4.3 lets a forced prefetch evict whatever the policy
// picks; §4.4 calls evicting nearer data for farther counter-productive
// and leaves the check as future work. Equal distances displacing each
// other churn without end, so the guard is strict.
func (m *Model) arrive(n int, in block.Info) {
	var plan []block.Info
	for freed := m.cfg.CacheBytes - m.used(n); freed < in.Size; {
		v, ok := m.victim(n, plan)
		if !ok || m.dist[v.ID.RDD] <= m.dist[in.ID.RDD] {
			m.log("prefetch-drop", in.ID)
			return
		}
		plan, freed = append(plan, v), freed+v.Size
	}
	for _, v := range plan {
		m.remove(v, "prefetch-evict")
		m.adv.Evictions++
	}
	m.nodes[n].mem = append(m.nodes[n].mem, in)
	m.log("prefetch", in.ID)
	m.adv.Prefetches++
}

// victim is evictBlock: the block in the node's memory, planned ones
// apart, with the greatest distance, the least recently used among
// equals; with MRD eviction off, the least recently used.
func (m *Model) victim(n int, planned []block.Info) (best block.Info, found bool) {
	for _, b := range m.nodes[n].mem {
		farther := !m.cfg.NoEviction && m.dist[b.ID.RDD] > m.dist[best.ID.RDD]
		if !slices.Contains(planned, b) && (!found || farther) {
			best, found = b, true
		}
	}
	return best, found
}

// insert caches a block the stage computed or re-read, evicting until
// it fits. A block larger than the node's memory stays uncached.
func (m *Model) insert(b block.Info) {
	n := m.home(b.ID)
	if m.holds(b) || b.Size > m.cfg.CacheBytes {
		return
	}
	for m.used(n)+b.Size > m.cfg.CacheBytes {
		v, _ := m.victim(n, nil)
		if m.Evicting != nil {
			m.Evicting(n, v.ID)
		}
		m.remove(v, "evict")
		m.adv.Evictions++
	}
	m.nodes[n].mem = append(m.nodes[n].mem, b)
	m.adv.Inserts++
}

// run is the stage: every read resolves against the memory the stage
// found — a hit is a use; a miss is restored from the node's disk or
// recomputed from lineage — and only then do the missed blocks, and
// after them the blocks the stage creates, enter memory.
func (m *Model) run(s *dag.Stage) {
	reads, creates := frontier(s, m.created)
	var missed []block.Info
	for _, r := range reads {
		for p := 0; p < r.NumPartitions; p++ {
			b := r.BlockInfo(p)
			nd := &m.nodes[m.home(b.ID)]
			if i := slices.Index(nd.mem, b); i >= 0 {
				m.adv.Hits++
				nd.mem = append(slices.Delete(nd.mem, i, i+1), b)
				continue
			}
			if m.adv.Misses++; slices.Contains(nd.disk, b.ID) {
				m.adv.Promotes++
			} else {
				m.adv.Recomputes++
			}
			missed = append(missed, b)
		}
	}
	for _, r := range creates {
		for p := 0; p < r.NumPartitions; p++ {
			missed = append(missed, r.BlockInfo(p))
		}
		m.created = append(m.created, r.ID)
	}
	for _, b := range missed {
		m.insert(b)
	}
}

// remove takes the block out of the node's memory and records why.
//
// deviation 2: §4.2 prefetches an evicted block back from local disk, so
// a MEMORY_AND_DISK block spills to the node's disk as it leaves; a
// MEMORY_ONLY one is gone. Nothing but a node failure ever leaves a disk.
func (m *Model) remove(b block.Info, kind string) {
	nd := &m.nodes[m.home(b.ID)]
	nd.mem = slices.DeleteFunc(nd.mem, func(x block.Info) bool { return x == b })
	if b.Level == block.MemoryAndDisk && !slices.Contains(nd.disk, b.ID) {
		nd.disk = append(nd.disk, b.ID)
	}
	m.log(kind, b.ID)
}

// log records a decision; a block's node is always its home.
func (m *Model) log(kind string, id block.ID) {
	m.adv.Decisions = append(m.adv.Decisions, Decision{kind, m.home(id), id})
}

// home is the placement rule: partition modulo node count.
func (m *Model) home(id block.ID) int { return id.Partition % len(m.nodes) }

// holds reports whether the block is in its node's memory.
func (m *Model) holds(b block.Info) bool { return slices.Contains(m.nodes[m.home(b.ID)].mem, b) }

func (m *Model) used(n int) (bytes int64) {
	for _, b := range m.nodes[n].mem {
		bytes += b.Size
	}
	return bytes
}
