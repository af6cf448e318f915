// Package service is the online cache-advisory subsystem: the paper's
// MRDmanager lifted out of the batch simulator and exposed as a
// long-running, multi-tenant server (cmd/mrdserver) that external
// applications consult over HTTP at every stage boundary, exactly the
// controller shape LRC and LERC deploy beside Spark's driver.
//
// The heart of the package is the Advisor: a deterministic advisory
// session that owns one application's DAG, a pluggable cache policy
// (policyspec.Spec — MRD and every baseline), and a model of the
// cluster's cache state built from the same cluster.MemoryStore /
// cluster.DiskStore components the simulator runs on. Feeding the same
// jobs and stage boundaries to two Advisors — one behind the server,
// one in-process — must produce byte-for-byte identical decision logs;
// cmd/mrdload uses exactly that as its parity oracle.
package service

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
	"mrdspark/internal/dag"
	"mrdspark/internal/obs"
	"mrdspark/internal/policy"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/workload"
)

// AdvisorConfig shapes the advisory session's cluster model and
// policy. The zero value is normalized by Normalize.
type AdvisorConfig struct {
	// Nodes is the modeled worker count; 0 means DefaultNodes.
	Nodes int `json:"nodes,omitempty"`
	// CacheBytes is the per-node memory-store capacity; 0 means
	// DefaultCacheBytes.
	CacheBytes int64 `json:"cacheBytes,omitempty"`
	// Policy selects the cache policy; the zero value means full MRD in
	// recurring mode.
	Policy policyspec.Spec `json:"policy"`
}

// Advisory-model defaults.
const (
	DefaultNodes      = 8
	DefaultCacheBytes = 256 * cluster.MB
)

// Normalize fills zero fields with defaults and validates the rest.
func (c AdvisorConfig) Normalize() (AdvisorConfig, error) {
	if c.Nodes == 0 {
		c.Nodes = DefaultNodes
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.Policy.Kind == "" {
		c.Policy.Kind = "MRD"
	}
	if c.Nodes < 0 || c.CacheBytes < 0 {
		return c, fmt.Errorf("service: negative cluster shape (nodes=%d, cacheBytes=%d)", c.Nodes, c.CacheBytes)
	}
	return c, nil
}

// Decision is one cache-management action the advisor issued during a
// stage advance, in issue order. Kind is one of:
//
//	"purge"          — manager all-out purge of a dead block
//	"evict"          — demand eviction making room for an insert
//	"prefetch"       — prefetch order that landed in free memory
//	"prefetch-evict" — eviction performed by a forced prefetch arrival
//	"prefetch-drop"  — prefetch order refused by the arbiter/victim walk
//
// Block is held as the value the advisor computes with; its name,
// rdd_<rddID>_<partition>, exists only at the edges — in JSON, on the
// wire and in a Fingerprint.
type Decision struct {
	Kind  string
	Node  int
	Block block.ID
}

// decisionJSON is the JSON shape of a Decision.
type decisionJSON struct {
	Kind  string `json:"kind"`
	Node  int    `json:"node"`
	Block string `json:"block"`
}

// appendJSON appends the decision in the shape of decisionJSON, the
// block as its name. A name needs no escaping, nor does a kind of the
// closed set; any other kind is quoted by encoding/json, which escapes
// what it would in a struct field.
func (d Decision) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"kind":`...)
	if _, known := decisionKindCode(d.Kind); known {
		b = append(append(append(b, '"'), d.Kind...), '"')
	} else {
		kind, err := json.Marshal(d.Kind)
		if err != nil {
			return nil, err
		}
		b = append(b, kind...)
	}
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(d.Node), 10)
	b = append(b, `,"block":"`...)
	b = d.Block.AppendName(b)
	return append(b, `"}`...), nil
}

// MarshalJSON renders the block as its name.
func (d Decision) MarshalJSON() ([]byte, error) { return d.appendJSON(nil) }

// UnmarshalJSON parses the block's name back; a malformed name is an
// error.
func (d *Decision) UnmarshalJSON(data []byte) error {
	var w decisionJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	return d.fromJSON(w)
}

func (d *Decision) fromJSON(w decisionJSON) error {
	id, err := block.ParseID(w.Block)
	if err != nil {
		return err
	}
	*d = Decision{Kind: w.Kind, Node: w.Node, Block: id}
	return nil
}

// Counters summarize the modeled stage execution that followed the
// manager's decisions, read off the session bus's tally (countersOf).
type Counters struct {
	Hits       int `json:"hits"`
	Misses     int `json:"misses"`
	Promotes   int `json:"promotes"`
	Recomputes int `json:"recomputes"`
	Inserts    int `json:"inserts"`
	Evictions  int `json:"evictions"`
	Purged     int `json:"purged"`
	Prefetches int `json:"prefetches"`
}

// Add folds another set of counters into c.
func (c *Counters) Add(o Counters) {
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Promotes += o.Promotes
	c.Recomputes += o.Recomputes
	c.Inserts += o.Inserts
	c.Evictions += o.Evictions
	c.Purged += o.Purged
	c.Prefetches += o.Prefetches
}

// Advice is the full response to one stage-boundary advance: the
// decisions in issue order plus the resulting model counters.
type Advice struct {
	Stage     int        `json:"stage"`
	Job       int        `json:"job"`
	Decisions []Decision `json:"decisions"`
	Counters  Counters   `json:"counters"`
	// Replayed marks advice served from the session's decision log
	// rather than freshly computed — the response to an advance retried
	// across a server restart. Replayed advice is byte-identical to
	// the original (it is the original) and is excluded from the
	// fingerprint, which covers only the decision content.
	Replayed bool `json:"replayed,omitempty"`
}

// adviceJSON is the JSON shape of an Advice.
type adviceJSON struct {
	Stage     int            `json:"stage"`
	Job       int            `json:"job"`
	Decisions []decisionJSON `json:"decisions"`
	Counters  Counters       `json:"counters"`
	Replayed  bool           `json:"replayed,omitempty"`
}

// MarshalJSON renders the advice in the shape of adviceJSON in one
// buffer: encoding/json would otherwise call — and re-validate — a
// Marshaler per decision, which made the JSON transport's advice four
// times as expensive as when a decision held its block's name.
func (a Advice) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 160+64*len(a.Decisions))
	b = append(b, `{"stage":`...)
	b = strconv.AppendInt(b, int64(a.Stage), 10)
	b = append(b, `,"job":`...)
	b = strconv.AppendInt(b, int64(a.Job), 10)
	if a.Decisions == nil {
		b = append(b, `,"decisions":null`...)
	} else {
		b = append(b, `,"decisions":[`...)
		for i, d := range a.Decisions {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = d.appendJSON(b); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	counters, err := json.Marshal(a.Counters)
	if err != nil {
		return nil, err
	}
	b = append(append(b, `,"counters":`...), counters...)
	if a.Replayed {
		b = append(b, `,"replayed":true`...)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON parses an advice in the shape of adviceJSON.
func (a *Advice) UnmarshalJSON(data []byte) error {
	var w adviceJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*a = Advice{Stage: w.Stage, Job: w.Job, Counters: w.Counters, Replayed: w.Replayed}
	if w.Decisions != nil {
		a.Decisions = make([]Decision, len(w.Decisions))
	}
	for i, d := range w.Decisions {
		if err := a.Decisions[i].fromJSON(d); err != nil {
			return fmt.Errorf("decision %d: %w", i, err)
		}
	}
	return nil
}

// Fingerprint renders the advice in a canonical single-string form;
// equal fingerprints mean byte-for-byte identical decisions. This is
// the unit the load generator's parity oracle compares.
func (a Advice) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stage=%d job=%d", a.Stage, a.Job)
	for _, d := range a.Decisions {
		fmt.Fprintf(&b, " %s:%d:%s", d.Kind, d.Node, d.Block)
	}
	fmt.Fprintf(&b, " | hits=%d misses=%d promotes=%d recomputes=%d inserts=%d evictions=%d purged=%d prefetches=%d",
		a.Counters.Hits, a.Counters.Misses, a.Counters.Promotes, a.Counters.Recomputes,
		a.Counters.Inserts, a.Counters.Evictions, a.Counters.Purged, a.Counters.Prefetches)
	return b.String()
}

// advNode is one modeled worker: the same memory/disk store pair the
// simulator schedules onto, minus the device queues (the advisor models
// state, not time).
type advNode struct {
	mem  *cluster.MemoryStore
	disk *cluster.DiskStore
}

// BytePlane is the optional hook through which a host that holds real
// data (internal/exec) keeps its bytes in step with the advisor's
// accounting. The advisor owns every residency decision and calls the
// hook synchronously (on the goroutine driving it; the shipped policies
// only act inside Advance), right after the accounting change each call
// names; the host owns the bytes and never touches the accounting.
type BytePlane interface {
	// Spill moves the block's bytes from memory to disk: an eviction or
	// purge of a MEMORY_AND_DISK block.
	Spill(node int, id block.ID)
	// Drop discards the block's in-memory bytes: an eviction or purge
	// of a MEMORY_ONLY block.
	Drop(node int, id block.ID)
	// Load copies the block's on-disk bytes into memory: a prefetch
	// arrival.
	Load(node int, id block.ID)
}

// Advisor is one application's advisory session. It is not safe for
// concurrent use; the server serializes calls per session. The
// read-only Resident/OnDisk/Created accessors write nothing, so
// any number of goroutines may call them at once — but only between
// calls that mutate the session, and the caller must order the two (the
// execution engine's dispatch channels do): the stores underneath hold
// no lock.
type Advisor struct {
	graph   *dag.Graph
	cfg     AdvisorConfig
	factory policy.Factory
	nodes   []*advNode

	// Optional factory capabilities, resolved once.
	stageObs policy.StageObserver
	jobObs   policy.JobObserver
	failObs  policy.NodeFailureObserver

	stages  map[int]*dag.Stage // executed stages by ID
	created dag.Materialized   // cached RDDs materialized so far

	nextJob   int // next job index expected by SubmitJob
	lastStage int // last advanced stage ID (-1 before the first)

	// origin identifies the workload the graph was built from, when
	// known; snapshots of origin-bearing advisors can be restored on a
	// different process by rebuilding the graph from (Workload, Params).
	origin *Origin
	// ops is the session's operation log: every successfully applied
	// job submission, stage advance and node failure, in arrival order.
	// Replaying it against a fresh advisor over the same graph rebuilds
	// this advisor's exact state — the restore mechanism.
	ops []Op
	// history is the session's decision log: every advice ever issued,
	// in advance order. Deterministic replay regenerates it, so it is
	// never serialized; it makes retries after a restart idempotent (a
	// re-advanced stage is served its recorded advice).
	history []Advice

	// Current-advance state.
	cur    *Advice
	curBuf Advice // what cur points at during an advance

	// Advance-lifetime scratch, reused by every advance: the decision log
	// grows in logBuf and is copied at its exact size into the advice that
	// history keeps; missedBuf is the stage's missed reads.
	logBuf    []Decision
	missedBuf []block.Info

	bus   *obs.Bus  // the session's own: NewAdvisor makes it, AttachBus replaces it
	bytes BytePlane // nil for a model-only session
}

// NewAdvisor builds a session over the application DAG. The config's
// policy is instantiated against the graph exactly as the simulator
// would instantiate it.
func NewAdvisor(g *dag.Graph, cfg AdvisorConfig) (*Advisor, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	factory, err := cfg.Policy.Build(g)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	a := &Advisor{
		graph:     g,
		cfg:       cfg,
		factory:   factory,
		stages:    map[int]*dag.Stage{},
		lastStage: -1,
		bus:       obs.New(),
	}
	for _, s := range g.ExecutedStages() {
		a.stages[s.ID] = s
	}
	a.stageObs, _ = factory.(policy.StageObserver)
	a.jobObs, _ = factory.(policy.JobObserver)
	a.failObs, _ = factory.(policy.NodeFailureObserver)
	if ca, ok := factory.(policy.ClusterAware); ok {
		ca.Attach(advOps{a})
	}
	for i := 0; i < cfg.Nodes; i++ {
		a.nodes = append(a.nodes, &advNode{
			mem:  cluster.NewMemoryStore(cfg.CacheBytes, factory.NewNodePolicy(i)),
			disk: cluster.NewDiskStore(),
		})
	}
	return a, nil
}

// AttachBus replaces the session's bus with b, before the first call
// that emits, for the advisor and, when it supports it, the policy:
// every modeled cache event and manager decision goes to b's listeners.
func (a *Advisor) AttachBus(b *obs.Bus) {
	a.bus = b
	if at, ok := a.factory.(obs.Attacher); ok {
		at.AttachBus(b)
	}
}

// SetBytePlane installs the byte-plane hook (before the first Advance).
func (a *Advisor) SetBytePlane(p BytePlane) { a.bytes = p }

// Config returns the normalized session configuration.
func (a *Advisor) Config() AdvisorConfig { return a.cfg }

// SetOrigin records the workload identity the session's graph was
// built from, enabling cross-process snapshot restore (the graph is
// rebuilt by workload.Build, which is a pure function of the pair).
func (a *Advisor) SetOrigin(name string, p workload.Params) {
	a.origin = &Origin{Workload: name, Params: p}
}

// AdviceFor returns the recorded advice of an already-advanced stage.
// It lets the server serve idempotent retries: a client that re-issues
// an advance after a timeout or a server restart gets the
// byte-identical advice the original advance produced.
func (a *Advisor) AdviceFor(stageID int) (Advice, bool) {
	// history is ordered by strictly increasing stage ID.
	i := sort.Search(len(a.history), func(i int) bool { return a.history[i].Stage >= stageID })
	if i < len(a.history) && a.history[i].Stage == stageID {
		return a.history[i], true
	}
	return Advice{}, false
}

// History returns the session's full decision log in advance order.
func (a *Advisor) History() []Advice { return a.history }

// PolicyName returns the instantiated policy's display name.
func (a *Advisor) PolicyName() string { return a.factory.Name() }

// Graph returns the session's application DAG.
func (a *Advisor) Graph() *dag.Graph { return a.graph }

// NextJob returns the next job index SubmitJob expects.
func (a *Advisor) NextJob() int { return a.nextJob }

// LastStage returns the last advanced stage ID (-1 before the first).
func (a *Advisor) LastStage() int { return a.lastStage }

// SubmitJob feeds the next job's DAG to the policy (the DAGScheduler →
// AppProfiler hand-off; Profile.AddJob runs underneath for DAG-aware
// policies). Jobs must be submitted in ID order.
func (a *Advisor) SubmitJob(jobID int) error {
	if jobID != a.nextJob {
		return fmt.Errorf("service: job %d out of order (next is %d)", jobID, a.nextJob)
	}
	if jobID < 0 || jobID >= len(a.graph.Jobs) {
		return fmt.Errorf("service: job %d does not exist (application has %d jobs)", jobID, len(a.graph.Jobs))
	}
	if a.jobObs != nil {
		a.jobObs.OnJobSubmit(a.graph.Jobs[jobID])
	}
	a.nextJob++
	a.ops = append(a.ops, Op{Kind: OpSubmitJob, Arg: jobID})
	return nil
}

// OnNodeFailure reports a worker loss to the policy (the §4.4 table
// re-issue path) and wipes the node's modeled stores.
func (a *Advisor) OnNodeFailure(node int) error {
	if node < 0 || node >= len(a.nodes) {
		return fmt.Errorf("service: node %d out of range [0,%d)", node, len(a.nodes))
	}
	n := a.nodes[node]
	died := n.mem.Prefetch.Pending()
	n.mem.Clear()
	n.disk.Clear()
	if a.failObs != nil {
		a.failObs.OnNodeFailure(node)
	}
	a.bus.Emit(obs.Ev(obs.KindNodeFail, node).WithValue(died))
	a.ops = append(a.ops, Op{Kind: OpNodeFail, Arg: node})
	return nil
}

// Advance moves the session to the given stage boundary: the policy
// observes the stage start (the MRD manager purges and prefetches
// through the advisor's ClusterOps), then the stage's reads and cached
// outputs are applied to the model cluster. Stages must arrive in
// strictly increasing ID order and belong to an already-submitted job.
func (a *Advisor) Advance(stageID int) (Advice, error) {
	s, ok := a.stages[stageID]
	if !ok {
		return Advice{}, fmt.Errorf("service: stage %d is not an executed stage of this application", stageID)
	}
	if stageID <= a.lastStage {
		return Advice{}, fmt.Errorf("service: stage %d does not advance (last was %d)", stageID, a.lastStage)
	}
	jobID := s.FirstJob.ID
	if jobID >= a.nextJob {
		return Advice{}, fmt.Errorf("service: stage %d belongs to job %d, which has not been submitted", stageID, jobID)
	}
	a.curBuf = Advice{Stage: stageID, Job: jobID, Decisions: a.logBuf[:0]}
	a.cur = &a.curBuf
	a.bus.SetStage(stageID, jobID)
	before := a.bus.Tally()

	// Phase 1: the policy's stage-boundary work. For MRD this is Table
	// 2's newReferenceDistance followed by the purge and prefetch phases
	// of Algorithm 1, arriving here as Evict/Prefetch calls on advOps.
	if a.stageObs != nil {
		a.stageObs.OnStageStart(stageID, jobID)
	}

	// Phase 2: model the stage's execution — demand reads against the
	// caches, then materialization of the stage's cached outputs.
	a.applyStage(s)

	a.curBuf.Counters = countersOf(before, a.bus.Tally())
	adv := a.curBuf
	a.cur = nil
	a.logBuf = adv.Decisions[:0]
	// Never nil: an advance without decisions is "decisions":[] in JSON.
	adv.Decisions = append(make([]Decision, 0, len(adv.Decisions)), adv.Decisions...)
	a.lastStage = stageID
	a.ops = append(a.ops, Op{Kind: OpAdvance, Arg: stageID})
	a.history = append(a.history, adv)
	return adv, nil
}

// applyStage folds one executed stage into the model cluster state:
// its cached-frontier reads (hit, promote from disk, or recompute) and
// the cached RDDs it materializes, block by block in deterministic
// (RDD, partition) order.
//
// Reads run in two phases, matching the simulator's plan-time read
// resolution: every read of the stage is first resolved against the
// cache state at stage start, and only then are the miss re-inserts
// applied. A one-phase loop (insert on miss as reads are walked) let an
// early miss's eviction displace a block the stage had not read yet —
// a same-stage read the simulator counts as a hit — which is exactly
// the divergence the differential harness pinned down.
func (a *Advisor) applyStage(s *dag.Stage) {
	reads, creates := a.created.Frontier(s)
	missed := a.missedBuf[:0]
	for _, r := range reads {
		for p := 0; p < r.NumPartitions; p++ {
			if !a.resolveRead(r.BlockInfo(p)) {
				missed = append(missed, r.BlockInfo(p))
			}
		}
	}
	a.missedBuf = missed
	for _, info := range missed {
		a.insertBlock(a.home(info.ID), info, "evict")
	}
	for _, r := range creates {
		for p := 0; p < r.NumPartitions; p++ {
			a.insertBlock(a.home(r.Block(p)), r.BlockInfo(p), "evict")
		}
		a.created.Mark(r.ID)
	}
}

// resolveRead models one demand read of a cached block on its home
// node against the current cache state, without mutating the store: it
// reports whether the read hit, and on a miss classifies the recovery
// (disk promote or lineage recompute). The caller re-inserts missed
// blocks after the whole read phase.
func (a *Advisor) resolveRead(info block.Info) bool {
	node := a.home(info.ID)
	n := a.nodes[node]
	used := n.mem.Prefetch.Used
	if n.mem.Get(info.ID) {
		a.bus.Emit(obs.BlockEv(obs.KindHit, node, info.ID, info.Size).Settling(n.mem.Prefetch.Used != used))
		return true
	}
	a.bus.Emit(obs.BlockEv(obs.KindMiss, node, info.ID, info.Size))
	if n.disk.Has(info.ID) {
		a.bus.Emit(obs.BlockEv(obs.KindPromote, node, info.ID, info.Size))
	} else {
		a.bus.Emit(obs.BlockEv(obs.KindRecompute, node, info.ID, info.Size))
	}
	return false
}

// insertBlock puts the block into the node's memory store, recording
// the demand evictions the insert forces. evictKind labels those
// evictions in the decision log.
func (a *Advisor) insertBlock(node int, info block.Info, evictKind string) {
	n := a.nodes[node]
	if n.mem.Contains(info.ID) {
		return
	}
	evicted, ok := n.mem.Put(info)
	for _, v := range evicted {
		a.settleEviction(node, v, evictKind)
	}
	if !ok {
		return // oversized or fully protected: the read stays uncached
	}
	a.bus.Emit(obs.BlockEv(obs.KindInsert, node, info.ID, info.Size))
}

// vacate settles a block that just left the node's memory store, by
// eviction or purge: a MEMORY_AND_DISK block spills to disk, a
// MEMORY_ONLY one is lost.
func (a *Advisor) vacate(node int, v block.Info) {
	n := a.nodes[node]
	if v.Level == block.MemoryAndDisk {
		n.disk.Put(v.ID, v.Size)
		if a.bytes != nil {
			a.bytes.Spill(node, v.ID)
		}
	} else if a.bytes != nil {
		a.bytes.Drop(node, v.ID)
	}
}

// settleEviction records one policy-chosen eviction: its side effects
// and the decision log entry.
func (a *Advisor) settleEviction(node int, v block.Info, kind string) {
	a.vacate(node, v)
	a.record(Decision{Kind: kind, Node: node, Block: v.ID})
	a.bus.Emit(obs.BlockEv(obs.KindEvict, node, v.ID, v.Size).Settling(v.Unread))
}

// countersOf reads an advance's counters off its bus's tally before and
// after it.
func countersOf(before, after obs.Tally) Counters {
	n := func(k obs.Kind) int { return int(after[k].N - before[k].N) }
	return Counters{Hits: n(obs.KindHit), Misses: n(obs.KindMiss), Promotes: n(obs.KindPromote),
		Recomputes: n(obs.KindRecompute), Inserts: n(obs.KindInsert), Evictions: n(obs.KindEvict),
		Purged: n(obs.KindPurge), Prefetches: n(obs.KindPrefetchIssue)}
}

// record appends one decision to the current advance's log, if any.
func (a *Advisor) record(d Decision) {
	if a.cur != nil {
		a.cur.Decisions = append(a.cur.Decisions, d)
	}
}

// home returns the block's locality-preferred node — the cluster's one
// placement rule, so advisory decisions and simulated runs speak about
// the same cluster layout.
func (a *Advisor) home(id block.ID) int { return cluster.HomeNode(id, len(a.nodes)) }

// Resident reports whether the accounting holds the block in the node's
// memory store.
func (a *Advisor) Resident(node int, id block.ID) bool { return a.nodes[node].mem.Contains(id) }

// OnDisk reports whether the accounting holds a copy of the block on
// the node's disk.
func (a *Advisor) OnDisk(node int, id block.ID) bool { return a.nodes[node].disk.Has(id) }

// Created returns the set of cached RDDs advanced stages have created —
// a read-only view under the contract above: Advance marks it, so read
// it only between calls that mutate the session.
func (a *Advisor) Created() *dag.Materialized { return &a.created }

// ResidentBlocks returns the node's resident block IDs in deterministic
// order (test and debug helper).
func (a *Advisor) ResidentBlocks(node int) []block.ID {
	ids := a.nodes[node].mem.Blocks()
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}

// advOps is the policy.ClusterOps control surface over the advisor's
// model cluster. Its Evict/Prefetch mutations are where the manager's
// orders become decision-log entries.
type advOps struct{ a *Advisor }

var _ policy.ClusterOps = advOps{}

func (o advOps) NumNodes() int                       { return len(o.a.nodes) }
func (o advOps) HomeNode(id block.ID) int            { return o.a.home(id) }
func (o advOps) FreeBytes(node int) int64            { return o.a.nodes[node].mem.Free() }
func (o advOps) CapacityBytes(n int) int64           { return o.a.nodes[n].mem.Capacity() }
func (o advOps) Resident(node int, id block.ID) bool { return o.a.Resident(node, id) }
func (o advOps) OnDisk(node int, id block.ID) bool   { return o.a.OnDisk(node, id) }

// Evict implements the manager's all-out purge order.
func (o advOps) Evict(node int, id block.ID) bool {
	a := o.a
	info, ok := a.nodes[node].mem.Remove(id)
	if !ok {
		return false
	}
	a.vacate(node, info)
	a.record(Decision{Kind: "purge", Node: node, Block: id})
	a.bus.Emit(obs.BlockEv(obs.KindPurge, node, id, info.Size).Settling(info.Unread))
	return true
}

// Prefetch implements the manager's prefetch order: the block loads
// from local disk, evicting through the node's policy (arbitrated when
// the policy implements PrefetchArbiter) when it must.
func (o advOps) Prefetch(node int, info block.Info) {
	a := o.a
	n := a.nodes[node]
	if n.mem.Contains(info.ID) || !n.disk.Has(info.ID) {
		return
	}
	evicted, ok := n.mem.PutPrefetch(info)
	for _, v := range evicted {
		a.settleEviction(node, v, "prefetch-evict")
	}
	if !ok {
		a.record(Decision{Kind: "prefetch-drop", Node: node, Block: info.ID})
		return
	}
	if a.bytes != nil {
		a.bytes.Load(node, info.ID)
	}
	a.record(Decision{Kind: "prefetch", Node: node, Block: info.ID})
	a.bus.Emit(obs.BlockEv(obs.KindPrefetchIssue, node, info.ID, info.Size))
	a.bus.Emit(obs.BlockEv(obs.KindPrefetchArrive, node, info.ID, info.Size))
}

// PrefetchOutcomes reports the cluster-wide prefetch feedback the
// dynamic-threshold controller consumes.
func (o advOps) PrefetchOutcomes() (used, wasted int64) {
	_, used, wasted, _ = o.a.PrefetchLedger()
	return used, wasted
}

// PrefetchLedger returns the session's prefetch ledger, the sum of its
// stores' (DESIGN §4): a prefetch here lands the moment it is issued,
// so issued is what the stores took in.
func (a *Advisor) PrefetchLedger() (issued, used, wasted, pending int64) {
	for _, n := range a.nodes {
		l := n.mem.Prefetch
		issued, used, wasted, pending = issued+l.Landed, used+l.Used, wasted+l.Wasted, pending+l.Pending()
	}
	return
}
