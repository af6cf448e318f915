package sim

import (
	"fmt"

	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
	"mrdspark/internal/dag"
	"mrdspark/internal/fault"
	"mrdspark/internal/metrics"
	"mrdspark/internal/obs"
	"mrdspark/internal/policy"
)

// Options tunes a simulation beyond the cluster config.
type Options struct {
	// Fault is the fault-injection and recovery schedule: node crashes
	// (with optional rejoin), stragglers, block loss/corruption, flaky
	// remote fetches with bounded retry, and the replication factor
	// for cached and shuffle blocks. nil injects nothing; fault.Crash
	// builds the one-event single-crash schedule.
	Fault *fault.Schedule
}

// node bundles one worker's stores and device queues.
type node struct {
	id      int
	mem     *cluster.MemoryStore
	disk    *cluster.DiskStore
	cpu     *Slots
	diskDev *Device
	netDev  *Device

	// down marks a crashed node that has not yet rejoined: it runs no
	// tasks and accepts no inserts until rejoinAt.
	down     bool
	rejoinAt int // stageIx at which the node rejoins (valid while down)
	// slowUntil ends the node's current straggler window (0 = none).
	slowUntil int
	// cacheUsed is mem.Used() as of the node's last noteUsed.
	cacheUsed int64
}

// blockSet is a set of blocks.
type blockSet = block.Map[struct{}]

// Simulation executes one application DAG on one simulated cluster
// under one cache policy. Create with New, run once with Run.
type Simulation struct {
	eng     *Engine
	cfg     cluster.Config
	g       *dag.Graph
	factory policy.Factory
	opts    Options

	nodes []*node
	run   metrics.Run

	// created marks RDDs whose blocks have been materialized, which
	// turns them into read boundaries for later stages.
	created dag.Materialized
	// census bounds what the graph homes on each node, which sizes the
	// node's tables (a replacement store's too).
	census []cluster.Census

	// inFlight guards against duplicate prefetch orders for a block, and
	// aborted counts the arrivals no store took: the two things about a
	// prefetch the stores' ledgers cannot see (DESIGN §4).
	inFlight blockSet
	aborted  int64
	// pfSlab is the run's chunk of prefetch records not yet handed out,
	// pfMade how many its chunks have held so far, and pfFree the landed
	// records, linked through their next field.
	pfSlab []prefetchReq
	pfMade int
	pfFree *prefetchReq
	// corrupt marks blocks whose home-node disk copy has rotted (fault
	// injection); detection happens at the next demand read.
	corrupt blockSet
	// faultsAt indexes the schedule's events by executed-stage index.
	faultsAt map[int][]fault.Event
	// frng draws the remote-fetch failure stream (seeded, splitmix64).
	frng *fault.RNG

	// cacheUsed is the cluster-wide memory occupancy, kept current by
	// noteUsed at every store mutation.
	cacheUsed int64

	finish   int64
	stageIx  int // count of executed stages, for failure injection
	ran      bool
	timeline []metrics.StageSpan

	// The stage in progress: its job's index, its index among the job's
	// new stages, and its span so far.
	jobIx, stageK int
	span          metrics.StageSpan

	// Stage scratch. Stages execute one at a time, so what one stage
	// plans and runs with is the next stage's to reuse: the walk's
	// totals, the per-stage set of blocks already resolved, the work
	// units, the inserts they link, the tasks — slabs sized in New to the
	// widest stage — and the countdown that ends the stage.
	plan      stagePlan
	resolved  blockSet
	works     []taskWork
	inserts   []insert
	tasks     []task
	remaining int // tasks of the current stage still running
	// onRead and onCompute are planStage's walk callbacks, bound once.
	onRead, onCompute func(*dag.RDD)

	// bus is the run's observability event bus (internal/obs): its tally
	// is the run's count of every fact an event carries. It delivers
	// nothing until something subscribes (Observe, or a recorder on Bus).
	bus *obs.Bus
	agg *obs.Aggregator
}

// New assembles a simulation. The factory mints one policy per node;
// cluster-aware factories are attached to the control surface.
func New(g *dag.Graph, cfg cluster.Config, factory policy.Factory, workload string) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid DAG: %w", err)
	}
	s := &Simulation{
		eng:      NewEngine(),
		cfg:      cfg,
		g:        g,
		factory:  factory,
		faultsAt: map[int][]fault.Event{},
		census:   cluster.TakeCensus(g, cfg.Nodes, cfg.CacheBytes),
		bus:      obs.New(),
	}
	s.bus.SetClock(s.eng.Now)
	if at, ok := factory.(obs.Attacher); ok {
		at.AttachBus(s.bus)
	}
	s.run.Workload = workload
	s.run.Policy = factory.Name()

	// What the run holds for its whole length is paid for here, sized
	// from the graph and the cluster, so executing a task, issuing a
	// prefetch or filling a table allocates nothing. A task waits in one
	// place at a time — its node's slot queue, one of its node's device
	// queues, the engine's heap or its now-FIFO — and a node runs at
	// most CoresPerNode of them; the heap also holds each device's
	// service end.
	widest, stages := 0, 0
	for _, j := range g.Jobs {
		for _, st := range j.NewStages {
			widest = max(widest, st.NumTasks)
		}
		stages += len(j.NewStages)
	}
	s.works, s.tasks = make([]taskWork, widest), make([]task, widest)
	for i := range s.tasks {
		s.tasks[i].s = s
	}
	s.timeline = make([]metrics.StageSpan, 0, stages)
	s.onRead, s.onCompute = s.planRead, s.planCompute
	running := cfg.Nodes * cfg.CoresPerNode
	s.eng.reserve(running+2*cfg.Nodes, running)
	perNode := (widest + cfg.Nodes - 1) / cfg.Nodes
	s.nodes = make([]*node, 0, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		n := &node{
			id:      i,
			mem:     s.newMemoryStore(i),
			disk:    cluster.NewDiskStore(),
			cpu:     NewSlots(s.eng, cfg.CoresPerNode),
			diskDev: NewDevice(s.eng, cfg.DiskBytesPerSec),
			netDev:  NewDevice(s.eng, cfg.NetBytesPerSec),
		}
		n.disk.Reserve(s.census[i].Spillable)
		n.cpu.waiting.reserve(max(perNode-cfg.CoresPerNode, 0))
		n.diskDev.demand.reserve(cfg.CoresPerNode)
		n.netDev.demand.reserve(cfg.CoresPerNode)
		n.diskDev.background.reserve(s.census[i].Spillable)
		s.nodes = append(s.nodes, n)
	}
	if ca, ok := factory.(policy.ClusterAware); ok {
		ca.Attach(clusterOps{s})
	}
	return s, nil
}

// newMemoryStore mints node i's memory store, sized for the most blocks
// it can hold.
func (s *Simulation) newMemoryStore(i int) *cluster.MemoryStore {
	m := cluster.NewMemoryStore(s.cfg.CacheBytes, s.factory.NewNodePolicy(i))
	m.Reserve(s.census[i].Resident)
	return m
}

// SetOptions replaces the simulation options (before Run), validating
// the fault schedule against the cluster. The per-stage event index
// and the seeded fetch-failure RNG are rebuilt here so two simulations
// given equal schedules replay identically.
func (s *Simulation) SetOptions(o Options) error {
	if s.ran {
		return fmt.Errorf("sim: SetOptions after Run")
	}
	if err := o.Fault.Validate(len(s.nodes)); err != nil {
		return err
	}
	s.opts = o
	s.faultsAt = map[int][]fault.Event{}
	if o.Fault != nil {
		for _, ev := range o.Fault.Events {
			s.faultsAt[ev.Stage] = append(s.faultsAt[ev.Stage], ev)
		}
		s.frng = fault.NewRNG(o.Fault.Seed)
	}
	return nil
}

// Run executes the application to completion and returns its metrics.
// A Simulation is single-use.
func (s *Simulation) Run() metrics.Run {
	if s.ran {
		panic("sim: Simulation is single-use; create a new one per run")
	}
	s.ran = true
	s.eng.After(0, func() { s.startJob(0) })
	s.run.WallTime = s.eng.Run()
	s.bus.Tally().FillRun(&s.run)
	s.run.JCT = s.finish
	_, s.run.PrefetchUsed, s.run.PrefetchWasted = s.prefetchTotals()
	s.noteUnfiredFaults()
	for _, n := range s.nodes {
		s.run.DiskBusy += n.diskDev.Busy
		s.run.NetBusy += n.netDev.Busy
		if s.agg != nil {
			s.agg.SetNodeBusy(n.id, n.diskDev.Busy, n.netDev.Busy)
		}
	}
	return s.run
}

// Bus exposes the run's event bus for custom subscribers (before Run).
func (s *Simulation) Bus() *obs.Bus { return s.bus }

// Observe attaches (once) and returns the run's streaming aggregator:
// per-stage and per-node statistics, timeline lanes, and the four run
// histograms. Call before Run; read the aggregates after.
func (s *Simulation) Observe() *obs.Aggregator {
	if s.agg == nil {
		s.agg = obs.NewAggregator()
		s.agg.Attach(s.bus)
	}
	return s.agg
}

// Timeline returns the per-stage spans of the completed run, in
// execution order.
func (s *Simulation) Timeline() []metrics.StageSpan { return s.timeline }

// NodeStats is one worker's view of the run, for locality and balance
// analysis.
type NodeStats struct {
	Node          int
	CacheUsed     int64 // bytes resident at the end
	CacheBlocks   int
	DiskBlocks    int
	ReplicaBlocks int   // replica copies held for blocks homed elsewhere
	DiskBusy      int64 // µs
	NetBusy       int64 // µs
	Down          bool  // still down (crashed, never rejoined) at the end
}

// PerNode returns each worker's statistics after the run.
func (s *Simulation) PerNode() []NodeStats {
	out := make([]NodeStats, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = NodeStats{
			Node:          i,
			CacheUsed:     n.mem.Used(),
			CacheBlocks:   n.mem.Len(),
			DiskBlocks:    n.disk.Len(),
			ReplicaBlocks: n.disk.ReplicaLen(),
			DiskBusy:      n.diskDev.Busy,
			NetBusy:       n.netDev.Busy,
			Down:          n.down,
		}
	}
	return out
}

// Audit cross-checks internal consistency after a completed run: store
// occupancy never above capacity, no prefetch left in flight, and every
// issued prefetch either landed in a store or was aborted. Tests call it
// after integration runs; it returns the first violation.
func (s *Simulation) Audit() error {
	if !s.ran {
		return fmt.Errorf("sim: Audit before Run")
	}
	for _, n := range s.nodes {
		if n.mem.Used() > n.mem.Capacity() {
			return fmt.Errorf("sim: node %d over capacity: %d > %d", n.id, n.mem.Used(), n.mem.Capacity())
		}
		if n.mem.Used() < 0 {
			return fmt.Errorf("sim: node %d negative occupancy %d", n.id, n.mem.Used())
		}
	}
	if s.inFlight.Len() != 0 {
		return fmt.Errorf("sim: %d prefetches still in flight after drain", s.inFlight.Len())
	}
	if landed, _, _ := s.prefetchTotals(); landed+s.aborted != s.run.PrefetchIssued {
		return fmt.Errorf("sim: prefetch ledger broken: landed %d + aborted %d != issued %d",
			landed, s.aborted, s.run.PrefetchIssued)
	}
	return nil
}

// prefetchTotals sums the nodes' prefetch ledgers so far, the arrivals
// that never reached a store counted among the wasted.
func (s *Simulation) prefetchTotals() (landed, used, wasted int64) {
	wasted = s.aborted
	for _, n := range s.nodes {
		l := n.mem.Prefetch
		landed, used, wasted = landed+l.Landed, used+l.Used, wasted+l.Wasted
	}
	return
}

// Run is the convenience entry point: build and run in one call.
func Run(g *dag.Graph, cfg cluster.Config, factory policy.Factory, workload string) (metrics.Run, error) {
	s, err := New(g, cfg, factory, workload)
	if err != nil {
		return metrics.Run{}, err
	}
	return s.Run(), nil
}

// startJob submits job i and starts its first new stage, or ends the
// run after the last job.
func (s *Simulation) startJob(i int) {
	if i >= len(s.g.Jobs) {
		s.finish = s.eng.Now()
		return
	}
	job := s.g.Jobs[i]
	s.run.Jobs++
	s.run.StagesSkipped += job.SkippedStages()
	if jo, ok := s.factory.(policy.JobObserver); ok {
		jo.OnJobSubmit(job)
	}
	s.jobIx, s.stageK = i, 0
	s.startStage()
}

// startStage starts the current job's stage stageK, or the next job
// once the job has none left.
func (s *Simulation) startStage() {
	job := s.g.Jobs[s.jobIx]
	if s.stageK >= len(job.NewStages) {
		s.startJob(s.jobIx + 1)
		return
	}
	st := job.NewStages[s.stageK]
	// Stage context is set — and the boundary announced — before fault
	// injection and policy callbacks run, so every event they emit
	// carries the stage that is about to execute.
	s.bus.SetStage(st.ID, job.ID)
	s.bus.Emit(obs.Ev(obs.KindStageStart, obs.ClusterScope).
		WithValue(int64(st.NumTasks)).WithVerdict(st.Kind.String()))
	s.applyFaults()
	s.stageIx++
	if so, ok := s.factory.(policy.StageObserver); ok {
		so.OnStageStart(st.ID, job.ID)
	}
	s.span = metrics.StageSpan{
		StageID: st.ID, JobID: job.ID, Kind: st.Kind.String(),
		Tasks: st.NumTasks, Start: s.eng.Now(),
	}
	s.execStage(st)
}

// endStage is what the last task of a stage calls: it closes the
// stage's span and starts the next stage.
func (s *Simulation) endStage() {
	s.span.End = s.eng.Now()
	s.timeline = append(s.timeline, s.span)
	s.bus.Emit(obs.Ev(obs.KindStageEnd, obs.ClusterScope).
		WithValue(s.span.End - s.span.Start))
	s.stageK++
	s.startStage()
}

// taskWork is everything one task does: demand disk I/O, demand
// network I/O, compute, a shuffle write, and cache inserts at the end.
// The inserts are a list through the stage's insert slab, first and
// last being 1-based indexes into it (0: none).
type taskWork struct {
	diskBytes    int64
	netBytes     int64
	computeUs    int64
	shuffleWrite int64
	first, last  int32
}

// insert is a cache write targeted at a block's home node; next links
// the task's following insert, as first does its first.
type insert struct {
	node int
	info block.Info
	next int32
}

// addInsert appends a cache write to the task's inserts.
func (s *Simulation) addInsert(w *taskWork, node int, info block.Info) {
	s.inserts = append(s.inserts, insert{node: node, info: info})
	i := int32(len(s.inserts))
	if w.last == 0 {
		w.first = i
	} else {
		s.inserts[w.last-1].next = i
	}
	w.last = i
}

func (s *Simulation) execStage(st *dag.Stage) {
	works := s.planStage(st)
	s.remaining = len(works)
	for p := range works {
		t := &s.tasks[p]
		t.n, t.w, t.phase = s.execNode(p), &works[p], 0
		t.n.cpu.Acquire(t)
	}
}

// taskDone counts a finished task off the current stage and ends the
// stage with the last one.
func (s *Simulation) taskDone() {
	if s.remaining--; s.remaining == 0 {
		s.endStage()
	}
}

// task is one task in flight, and its own Handler: handing it to a
// device, the engine or the slot queue allocates nothing. A task holds
// its CPU slot from phase 1 to the end.
type task struct {
	s     *Simulation
	n     *node
	w     *taskWork
	phase int
}

// fire runs the task's next phase: demand disk read, demand network
// read, compute, shuffle write, then cache inserts and slot release.
func (t *task) fire() {
	s, n, w := t.s, t.n, t.w
	t.phase++
	switch t.phase {
	case 1:
		s.run.DiskReadBytes += w.diskBytes
		s.run.NetReadBytes += w.netBytes
		s.bus.Emit(obs.Ev(obs.KindTaskStart, n.id).WithValue(w.computeUs))
		n.diskDev.Transfer(w.diskBytes, Demand, t)
	case 2:
		n.netDev.Transfer(w.netBytes, Demand, t)
	case 3:
		s.eng.schedule(s.eng.now+w.computeUs, t)
	case 4:
		s.run.DiskWriteBytes += w.shuffleWrite
		n.diskDev.Transfer(w.shuffleWrite, Demand, t)
	case 5:
		for i := w.first; i != 0; i = s.inserts[i-1].next {
			s.insertBlock(&s.inserts[i-1])
		}
		s.bus.Emit(obs.Ev(obs.KindTaskEnd, n.id))
		n.cpu.Release()
		s.taskDone()
	}
}

// insertBlock places a newly materialized (or promoted) block into its
// home node's memory store, spilling a write-behind disk copy for
// MEMORY_AND_DISK blocks so later misses and prefetches can read it
// back without recomputation. Under replication, R-1 replica copies
// are shipped to the next nodes' disks at background priority. While
// the home node is down (crashed, awaiting rejoin) the insert is
// dropped: the block stays uncached and later references recompute it.
func (s *Simulation) insertBlock(ins *insert) {
	n := s.nodes[ins.node]
	if n.down {
		return
	}
	if ins.info.Level == block.MemoryAndDisk && !s.diskHas(n, ins.info.ID) {
		n.disk.Put(ins.info.ID, ins.info.Size)
		s.corrupt.Delete(ins.info.ID)
		s.run.DiskWriteBytes += ins.info.Size
		n.diskDev.Transfer(ins.info.Size, Background, noop)
	}
	resident := n.mem.Contains(ins.info.ID)
	evicted, ok := n.mem.Put(ins.info)
	// Emit the insert only when the block went in: a refused Put
	// (oversized block, or every resident block protected) must not put
	// a phantom residency claim on the trace, and a Put that found the
	// block resident — another task of the stage computed the same
	// partition, or a prefetch beat a planned re-insert — only touched it.
	if ok && !resident {
		s.bus.Emit(obs.BlockEv(obs.KindInsert, ins.node, ins.info.ID, ins.info.Size))
	}
	s.noteEvictions(evicted)
	if ok {
		s.replicate(n, ins.info)
	}
	s.noteUsed(n)
}

// noteUsed folds node n's occupancy change into the cluster-wide total
// and its high-water mark. Every site that mutates a memory store calls
// it, so the total always equals the sum of Used() over all nodes
// without walking them on each insert.
func (s *Simulation) noteUsed(n *node) {
	used := n.mem.Used()
	s.cacheUsed += used - n.cacheUsed
	n.cacheUsed = used
	if s.cacheUsed > s.run.PeakCacheUsed {
		s.run.PeakCacheUsed = s.cacheUsed
	}
}

func (s *Simulation) noteEvictions(evicted []block.Info) {
	for _, ev := range evicted {
		s.bus.Emit(obs.BlockEv(obs.KindEvict, cluster.HomeNode(ev.ID, len(s.nodes)), ev.ID, ev.Size).Settling(ev.Unread))
	}
}
