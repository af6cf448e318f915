package exec

import (
	"fmt"
	"sync"
	"time"

	"mrdspark/internal/cluster"
	"mrdspark/internal/dag"
	"mrdspark/internal/obs"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/service"
	"mrdspark/internal/workload"
)

// Engine defaults.
const (
	DefaultWorkers    = 4
	DefaultCacheBytes = 64 * cluster.MB
)

// KillSpec injects a worker loss into a run — the chaos path that
// exercises lineage recompute.
type KillSpec struct {
	// Worker is the worker index to kill.
	Worker int
	// Stage is the executed-stage ID the kill is tied to.
	Stage int
	// Mid kills the worker while the stage's task wave is running (the
	// first task to complete pulls the trigger): its bytes and shuffle
	// output vanish under the feet of concurrent tasks, which recover
	// through lineage recompute, and the cache accounting learns of the
	// loss at the next stage boundary — like a SIGKILLed executor whose
	// death the master only observes on the next heartbeat. When false
	// the kill lands deterministically at the stage's boundary, before
	// its decisions: both planes are wiped at once, so two runs with
	// the same KillSpec produce byte-identical decision fingerprints.
	Mid bool
}

// Config shapes one execution: the cluster (workers, per-worker cache
// budget), the cache policy the engine's Advisor runs, and optional
// chaos. Data-plane parameters (rows per partition, key skew, seed)
// come from the workload spec's Params.
type Config struct {
	// Workers is the worker count; 0 means DefaultWorkers. Each worker
	// is one goroutine with one memory/disk store pair, and block
	// placement follows cluster.HomeNode over this count.
	Workers int
	// CacheBytes is the per-worker memory-store capacity; 0 means
	// DefaultCacheBytes.
	CacheBytes int64
	// Policy selects the cache policy; the zero value means MRD.
	Policy policyspec.Spec
	// Kill, when non-nil, kills a worker during the run.
	Kill *KillSpec
}

// Result is one executed run: the measured wall-clock JCT, the
// decision-plane totals (the same counters the Advisor models), the
// data-plane counters only a real execution can measure, and the
// output digests the determinism and kill-parity checks compare.
type Result struct {
	Workload string
	Policy   string
	Workers  int

	// JCT is the measured wall-clock job-completion time.
	JCT time.Duration

	// Counters sums the per-stage decision counters; History holds the
	// per-stage advice, whose fingerprints are directly comparable with
	// service.Replay's.
	Counters service.Counters
	History  []service.Advice

	// JobDigests holds one output digest per job (over the result
	// stage's partitions, in partition order); OutputDigest folds them.
	JobDigests   []uint64
	OutputDigest uint64

	// Data-plane counters.
	TasksRun          int64 // tasks executed (retries included)
	TaskRetries       int64 // tasks re-run because their worker died under them
	Spills            int64 // blocks whose bytes moved (or landed) on disk under memory pressure
	SpillBytes        int64
	ShuffleBytes      int64 // bucket bytes read by reduce tasks, after map-side combine
	RemoteFetches     int64 // cached-block and bucket reads served by another worker
	LineageRecomputes int64 // blocks/map outputs recomputed because their bytes were gone

	// Prefetch ledger (issued == used + wasted + pending).
	PrefetchIssued, PrefetchUsed, PrefetchWasted, PrefetchPending int64
}

// shuffleInfo is the engine's registry entry for one shuffle: the map
// stage that writes it, its reduce partition count, the fold its map
// tasks apply before bucketing (nil for none, see mapSideCombine), and
// its map outputs — one table per shuffle, so a reducer reads all of
// its buckets under one lock (see gather).
type shuffleInfo struct {
	id          int
	mapStage    *dag.Stage
	reduceParts int
	combine     func(*arena, []Row) []Row

	mu  sync.Mutex
	out []mapOutput // by map partition; the zero mapOutput is absent
}

// Engine executes one workload: a master (the caller of Run) that
// walks the DAG's stage graph, advances its Advisor at every stage
// boundary — the advisor owns the cache accounting and decisions, the
// engine follows with the real bytes through the BytePlane hook — and
// schedules tasks onto worker goroutines. Not safe for concurrent use;
// Run may be called once.
type Engine struct {
	spec  *workload.Spec
	graph *dag.Graph
	cfg   Config
	adv   *service.Advisor
	nodes []*node

	stages   map[int]*dag.Stage
	shuffles map[int]*shuffleInfo

	// curCreates marks the cached RDDs the current stage materializes
	// (the advisor already counts them as materialized). Written only
	// between task waves.
	curCreates map[int]bool

	seed int64
	rows int
	skew float64

	bus   *obs.Bus
	start time.Time

	workerCh []chan func(*taskCtx)

	// Kill state. midArmed is the loaded trigger a completing task of
	// the kill stage fires; pendingFail marks a worker whose bytes are
	// gone and whose loss the advisor learns at the next boundary.
	midArmed    chan struct{}
	pendingFail bool

	ctr counters

	flights flightGroup

	jobDigests []uint64
}

// tally is a set of data-plane counts: a task keeps its own, lock-free,
// and flushes it into the engine's once it ends.
type tally struct {
	tasksRun          int64
	taskRetries       int64
	spills            int64
	spillBytes        int64
	shuffleBytes      int64
	remoteFetches     int64
	lineageRecomputes int64
}

// counters is the run's tally, which worker goroutines flush into
// under mu.
type counters struct {
	mu sync.Mutex
	tally
}

// flush adds t to the run's tally and zeroes it.
func (c *counters) flush(t *tally) {
	c.mu.Lock()
	c.tasksRun += t.tasksRun
	c.taskRetries += t.taskRetries
	c.spills += t.spills
	c.spillBytes += t.spillBytes
	c.shuffleBytes += t.shuffleBytes
	c.remoteFetches += t.remoteFetches
	c.lineageRecomputes += t.lineageRecomputes
	c.mu.Unlock()
	*t = tally{}
}

// New builds an engine over the workload: an Advisor over the cluster
// shape and policy, with the engine's byte plane hooked in.
func New(spec *workload.Spec, cfg Config) (*Engine, error) {
	if spec == nil || spec.Graph == nil {
		return nil, fmt.Errorf("exec: nil workload")
	}
	if cfg.Workers == 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.Workers < 1 || cfg.CacheBytes < 0 {
		return nil, fmt.Errorf("exec: bad cluster shape (workers=%d, cacheBytes=%d)", cfg.Workers, cfg.CacheBytes)
	}
	rows, skew := spec.Params.DataRows, spec.Params.DataSkew
	if rows < 0 || !(skew >= 0 && skew <= 1) {
		return nil, fmt.Errorf("exec: bad data parameters (rows=%d, want >= 0; skew=%g, want in [0,1])", rows, skew)
	}
	if rows == 0 {
		rows = DefaultRows
	}
	adv, err := service.NewAdvisor(spec.Graph, service.AdvisorConfig{
		Nodes: cfg.Workers, CacheBytes: cfg.CacheBytes, Policy: cfg.Policy,
	})
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	e := &Engine{
		spec:     spec,
		graph:    spec.Graph,
		cfg:      cfg,
		adv:      adv,
		stages:   map[int]*dag.Stage{},
		shuffles: map[int]*shuffleInfo{},
		seed:     dataSeed(spec.Params.Seed),
		rows:     rows,
		skew:     skew,
		bus:      obs.New(),
	}
	executed, maps := e.graph.ExecutedStages(), 0
	for _, s := range executed {
		if s.Kind == dag.ShuffleMap {
			maps += s.NumTasks
		}
	}
	outs := make([]mapOutput, maps) // every shuffle's table, in one allocation
	for _, s := range executed {
		e.stages[s.ID] = s
		if s.Kind == dag.ShuffleMap {
			e.shuffles[s.ShuffleID] = &shuffleInfo{id: s.ShuffleID, mapStage: s, out: outs[:s.NumTasks:s.NumTasks]}
			outs = outs[s.NumTasks:]
		}
	}
	for _, r := range e.graph.RDDs {
		for _, d := range r.Deps {
			if d.Type == dag.Shuffle {
				if si, ok := e.shuffles[d.ShuffleID]; ok {
					si.reduceParts, si.combine = r.NumPartitions, mapSideCombine(r.Op)
				}
			}
		}
	}
	adv.SetBytePlane(e)
	for i := 0; i < cfg.Workers; i++ {
		e.nodes = append(e.nodes, newNode(i))
	}
	if k := cfg.Kill; k != nil {
		if k.Worker < 0 || k.Worker >= cfg.Workers {
			return nil, fmt.Errorf("exec: kill worker %d out of range [0,%d)", k.Worker, cfg.Workers)
		}
		if _, ok := e.stages[k.Stage]; !ok {
			return nil, fmt.Errorf("exec: kill stage %d is not an executed stage", k.Stage)
		}
	}
	return e, nil
}

// AttachBus connects the run (and a bus-aware policy) to an
// observability bus. All events are emitted from the master goroutine;
// the engine stamps them with the elapsed wall-clock microseconds.
func (e *Engine) AttachBus(b *obs.Bus) {
	e.bus = b
	e.adv.AttachBus(b)
}

// Run executes the whole application — every job, stage by stage — and
// returns the measured result.
func (e *Engine) Run() (Result, error) {
	e.start = time.Now()
	e.bus.SetClock(func() int64 { return time.Since(e.start).Microseconds() })
	e.jobDigests = make([]uint64, len(e.graph.Jobs))

	e.workerCh = make([]chan func(*taskCtx), len(e.nodes))
	var workerWG sync.WaitGroup
	for i := range e.workerCh {
		ch := make(chan func(*taskCtx))
		e.workerCh[i] = ch
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			t := newTaskCtx(i) // the worker's own, for the whole run
			for fn := range ch {
				fn(t)
			}
		}()
	}
	defer func() {
		for _, ch := range e.workerCh {
			close(ch)
		}
		workerWG.Wait()
	}()

	for _, st := range service.Schedule(e.graph) {
		if st.Stage < 0 {
			if err := e.adv.SubmitJob(st.Job); err != nil {
				return Result{}, err
			}
			continue
		}
		if err := e.runStage(e.stages[st.Stage]); err != nil {
			return Result{}, err
		}
	}

	res := Result{
		Workload:   e.spec.Name,
		Policy:     e.adv.PolicyName(),
		Workers:    len(e.nodes),
		JCT:        time.Since(e.start),
		History:    e.adv.History(),
		JobDigests: e.jobDigests,
	}
	res.OutputDigest = combineDigests(e.jobDigests)
	for _, a := range res.History {
		res.Counters.Add(a.Counters)
	}
	res.TasksRun = e.ctr.tasksRun
	res.TaskRetries = e.ctr.taskRetries
	res.Spills = e.ctr.spills
	res.SpillBytes = e.ctr.spillBytes
	res.ShuffleBytes = e.ctr.shuffleBytes
	res.RemoteFetches = e.ctr.remoteFetches
	res.LineageRecomputes = e.ctr.lineageRecomputes
	res.PrefetchIssued, res.PrefetchUsed, res.PrefetchWasted, res.PrefetchPending = e.adv.PrefetchLedger()
	return res, nil
}

// runStage executes one stage: the boundary decision phase on the
// master, then the task wave across the workers, then output
// collection.
func (e *Engine) runStage(s *dag.Stage) error {
	// StageStart goes out before the boundary decisions so the
	// aggregator binds them (and the kill bookkeeping) to this stage's
	// entry, the way the simulator orders its stream.
	e.bus.SetStage(s.ID, s.FirstJob.ID)
	e.bus.Emit(obs.Ev(obs.KindStageStart, obs.ClusterScope).
		WithValue(int64(s.NumTasks)).WithVerdict(s.Kind.String()))
	if err := e.advance(s); err != nil {
		return err
	}
	stageStart := time.Now()

	if k := e.cfg.Kill; k != nil && k.Mid && k.Stage == s.ID {
		e.midArmed = make(chan struct{}, 1)
		e.midArmed <- struct{}{}
	}

	// Each worker gets its whole share of the stage in one hand-off and
	// runs it in task order.
	home := func(t int) int { return cluster.HomePartition(t, len(e.nodes)) }
	for t := 0; t < s.NumTasks; t++ {
		e.bus.Emit(obs.Ev(obs.KindTaskStart, home(t)))
	}

	digests := make([]uint64, s.NumTasks)
	durs := make([]int64, s.NumTasks)
	var wg sync.WaitGroup
	for _, ch := range e.workerCh {
		wg.Add(1)
		ch <- func(tc *taskCtx) {
			defer wg.Done()
			e.runShare(tc, s, digests, durs)
		}
	}
	wg.Wait()
	e.flights.reset()

	for t := 0; t < s.NumTasks; t++ {
		e.bus.Emit(obs.Ev(obs.KindTaskEnd, home(t)).WithValue(durs[t]))
	}
	e.bus.Emit(obs.Ev(obs.KindStageEnd, obs.ClusterScope).
		WithValue(time.Since(stageStart).Microseconds()))

	if s.Kind == dag.Result {
		e.jobDigests[s.FirstJob.ID] = combineDigests(digests)
	}
	return nil
}
