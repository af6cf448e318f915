package mrdspark_test

import (
	"fmt"
	"log"
	"os"
	"strings"

	"mrdspark"
	"mrdspark/internal/block"
	"mrdspark/internal/core"
	"mrdspark/internal/fault"
	"mrdspark/internal/profile"
	"mrdspark/internal/refdist"
	"mrdspark/internal/sim"
)

// The facade's examples: each is a program a reader can lift out whole
// (godoc shows them; `go test -run Example -v .` runs them), and each
// pins what it prints — everything here is deterministic.

// Quickstart: run one benchmark workload under Spark's default LRU and
// under MRD on the paper's main cluster, and compare.
func ExampleRun() {
	cfg := mrdspark.Config{
		Workload:     "SCC",                  // StronglyConnectedComponents, the paper's best case
		Cluster:      mrdspark.MainCluster(), // 25 nodes, 4 cores, 500 Mbps (Table 4)
		CachePerNode: 160 << 20,              // squeeze the storage pool so eviction matters
	}

	cfg.Policy = "LRU"
	lru, err := mrdspark.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	cfg.Policy = "MRD"
	mrd, err := mrdspark.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload %s on %d nodes, %d MB cache per node\n",
		cfg.Workload, cfg.Cluster.Nodes, cfg.CachePerNode>>20)
	fmt.Printf("  LRU: JCT %-12v hit ratio %5.1f%%  recomputes %d\n",
		lru.JCTDuration(), 100*lru.HitRatio(), lru.Recomputes)
	fmt.Printf("  MRD: JCT %-12v hit ratio %5.1f%%  recomputes %d  purged %d\n",
		mrd.JCTDuration(), 100*mrd.HitRatio(), mrd.Recomputes, mrd.PurgedBlocks)
	fmt.Printf("  normalized JCT: %.0f%% of LRU (lower is better)\n",
		100*float64(mrd.JCT)/float64(lru.JCT))
	// Output:
	// workload SCC on 25 nodes, 160 MB cache per node
	//   LRU: JCT 23.3124s     hit ratio  77.1%  recomputes 0
	//   MRD: JCT 18.486424s   hit ratio 100.0%  recomputes 0  purged 809
	//   normalized JCT: 79% of LRU (lower is better)
}

// Capacity planning: the paper's §5.6 cache-savings result as a tool.
// For each policy, find the smallest per-node cache that reaches a
// target hit ratio on SVD++ — the workload of the paper's Fig 7 —
// and report the savings MRD buys.
func ExampleCacheNeeded() {
	const target = 0.80
	fmt.Printf("smallest per-node cache reaching %.0f%% hit ratio on SVD++ (%d nodes):\n\n",
		100*target, mrdspark.MainCluster().Nodes)

	type result struct {
		policy string
		need   int64
		run    mrdspark.Result
	}
	var results []result
	for _, p := range []string{"LRU", "LRC", "MRD"} {
		need, run, err := mrdspark.CacheNeeded(mrdspark.Config{Workload: "SVD", Policy: p}, target)
		if err != nil {
			log.Fatalf("%s: %v", p, err)
		}
		results = append(results, result{p, need, run})
		fmt.Printf("  %-4s %6.1f MB/node  (hit %.1f%%, JCT %v)\n",
			p, float64(need)/(1<<20), 100*run.HitRatio(), run.JCTDuration())
	}

	lru, mrd := results[0], results[len(results)-1]
	fmt.Printf("\nMRD cache-space savings vs LRU: %.0f%%", 100*(1-float64(mrd.need)/float64(lru.need)))
	fmt.Printf("  (paper reports 63%% for its 68%% target on its testbed)\n")
	// Output:
	// smallest per-node cache reaching 80% hit ratio on SVD++ (25 nodes):
	//
	//   LRU    86.0 MB/node  (hit 83.7%, JCT 11.849878s)
	//   LRC    70.9 MB/node  (hit 80.4%, JCT 12.664876s)
	//   MRD    58.6 MB/node  (hit 80.5%, JCT 12.638583s)
	//
	// MRD cache-space savings vs LRU: 32%  (paper reports 63% for its 68% target on its testbed)
}

// Fault tolerance (paper §4.4): kill a worker node mid-run and watch
// the system recover — lost blocks recompute from lineage (or come
// back from surviving replicas when the schedule replicates), and the
// MRDmanager re-issues the reference-distance table to the replacement
// CacheMonitor.
func Example_failover() {
	spec, err := mrdspark.BuildWorkload("CC", mrdspark.WorkloadParams{})
	if err != nil {
		log.Fatal(err)
	}
	cl := mrdspark.MainCluster().WithCache(400 << 20)

	// Healthy baseline.
	healthy, err := mrdspark.Run(mrdspark.Config{Workload: "CC", Policy: "MRD", CachePerNode: 400 << 20})
	if err != nil {
		log.Fatal(err)
	}

	// Same run, but node 3 dies just before the 8th executed stage
	// (memory, local disk and monitor state all lost). Once without
	// replication — everything the node held recomputes from lineage —
	// and once with replication factor 2, where surviving replica
	// copies absorb most of the loss.
	runCrash := func(replication int) (mrdspark.Result, core.Stats) {
		mgr := core.NewManager(spec.Graph,
			core.NewRecurringProfiler(refdist.FromGraph(spec.Graph)), core.Options{})
		s, err := sim.New(spec.Graph, cl, mgr, spec.Name)
		if err != nil {
			log.Fatal(err)
		}
		sched := fault.Crash(3, 8)
		sched.Replication = replication
		if err := s.SetOptions(sim.Options{Fault: sched}); err != nil {
			log.Fatal(err)
		}
		return s.Run(), mgr.Stats()
	}
	failed, st := runCrash(1)
	replicated, _ := runCrash(2)

	fmt.Printf("ConnectedComponents under MRD, %d nodes:\n\n", cl.Nodes)
	row := func(label string, r mrdspark.Result) {
		fmt.Printf("  %-22s JCT %-12v hit %5.1f%%  recomputes %-4d replica hits %d\n",
			label, r.JCTDuration(), 100*r.HitRatio(), r.Recomputes, r.ReplicaHits)
	}
	row("healthy run:", healthy)
	row("node 3 lost:", failed)
	row("node 3 lost, repl=2:", replicated)
	fmt.Printf("\nmanager fault handling: MRD_Table re-issued %d time(s) to the replacement monitor\n",
		st.TableReissues)
	fmt.Printf("slowdown from the failure: %.1f%% unreplicated, %.1f%% with replication\n",
		100*(float64(failed.JCT)/float64(healthy.JCT)-1),
		100*(float64(replicated.JCT)/float64(healthy.JCT)-1))
	// Output:
	// ConnectedComponents under MRD, 25 nodes:
	//
	//   healthy run:           JCT 32.899942s   hit  91.0%  recomputes 0    replica hits 0
	//   node 3 lost:           JCT 45.312436s   hit  92.3%  recomputes 24   replica hits 0
	//   node 3 lost, repl=2:   JCT 43.973149s   hit  90.4%  recomputes 0    replica hits 18
	//
	// manager fault handling: MRD_Table re-issued 1 time(s) to the replacement monitor
	// slowdown from the failure: 37.7% unreplicated, 33.7% with replication
}

// PageRank bakeoff: sweep cache sizes for the PR workload (the
// I/O-intensive web-search benchmark the paper's intro motivates) and
// print how each policy's runtime and hit ratio respond — a compact
// version of the paper's Figs 4 and 7.
func Example_pagerank() {
	policies := []string{"LRU", "LFU", "LRC", "MemTune", "MRD-evict", "MRD"}
	caches := []int64{64 << 20, 96 << 20, 128 << 20, 192 << 20, 256 << 20}

	row := func(head string, cells []string) {
		line := fmt.Sprintf("%-10s", head)
		for _, c := range cells {
			line += fmt.Sprintf("  %-18s", c)
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	row("cache/node", policies)
	for _, cache := range caches {
		var cells []string
		for _, p := range policies {
			run, err := mrdspark.Run(mrdspark.Config{
				Workload:     "PR",
				Policy:       p,
				CachePerNode: cache,
			})
			if err != nil {
				log.Fatal(err)
			}
			cells = append(cells, fmt.Sprintf("%7v %5.1f%%", run.JCTDuration().Round(1e6), 100*run.HitRatio()))
		}
		row(fmt.Sprintf("%dM", cache>>20), cells)
	}
	fmt.Println("\ncells: job completion time, cache hit ratio")
	// Output:
	// cache/node  LRU                 LFU                 LRC                 MemTune             MRD-evict           MRD
	// 64M         28.573s  46.4%      38.216s  25.1%      29.458s  43.4%      35.216s  31.6%      27.212s  51.2%      27.499s  57.8%
	// 96M             24s  64.7%      28.475s  42.0%      19.764s  70.5%      24.022s  60.2%      19.848s  70.5%      20.119s  70.9%
	// 128M        21.609s  71.9%      27.986s  44.4%      15.475s  81.1%      22.693s  68.5%      15.475s  81.1%      15.692s  82.2%
	// 192M        15.047s  83.3%      19.439s  67.7%      13.619s  90.0%      15.047s  83.3%      13.619s  90.0%      13.619s  90.0%
	// 256M        13.136s  93.3%      14.379s  81.1%      12.054s 100.0%      13.136s  93.3%      12.054s 100.0%      12.054s 100.0%
	//
	// cells: job completion time, cache hit ratio
}

// Recurring applications: the paper's §4.1/§5.8 workflow end to end.
// The first run of K-Means is ad-hoc — MRD learns the DAG one job at a
// time and every cross-job reference initially looks infinite. The
// observed profile is saved to a store; the second run loads it and
// starts with the whole application DAG visible.
func Example_recurring() {
	dir, err := os.MkdirTemp("", "mrd-profiles")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := profile.NewStore(dir)
	if err != nil {
		log.Fatal(err)
	}

	const app = "KM-default"
	cl := mrdspark.MainCluster().WithCache(180 << 20)
	spec, err := mrdspark.BuildWorkload("KM", mrdspark.WorkloadParams{})
	if err != nil {
		log.Fatal(err)
	}

	// First run: no stored profile, so the AppProfiler runs ad-hoc.
	stored, ok, err := store.LoadProfile(app)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first run:  stored profile found: %v\n", ok)
	prof := core.NewAppProfiler()
	mgr := core.NewManager(spec.Graph, prof, core.Options{})
	run1, err := sim.Run(spec.Graph, cl, mgr, spec.Name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  ad-hoc:    JCT %v, hit %.1f%%\n", run1.JCTDuration(), 100*run1.HitRatio())

	// Persist what the profiler observed.
	if _, err := store.Save(app, prof.Observed(), true, prof.Discrepancies()); err != nil {
		log.Fatal(err)
	}

	// Second run: load the profile, run in recurring mode.
	stored, ok, err = store.LoadProfile(app)
	if err != nil || !ok {
		log.Fatalf("expected a stored profile, got ok=%v err=%v", ok, err)
	}
	fmt.Printf("second run: stored profile found: %v (%s)\n", ok, stored)
	prof2 := core.NewRecurringProfiler(stored)
	mgr2 := core.NewManager(spec.Graph, prof2, core.Options{})
	run2, err := sim.Run(spec.Graph, cl, mgr2, spec.Name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  recurring: JCT %v, hit %.1f%% (discrepancies: %d)\n",
		run2.JCTDuration(), 100*run2.HitRatio(), prof2.Discrepancies())

	// The paper's §5.8 point: recurring-mode K-Means should beat the
	// ad-hoc first run, because KM's 17 jobs hide most references
	// behind job boundaries.
	fmt.Printf("recurring vs ad-hoc JCT: %.0f%%\n", 100*float64(run2.JCT)/float64(run1.JCT))

	// Sanity: the stored profile round-trips exactly.
	if !stored.Equal(refdist.FromData(prof.Observed().Data())) {
		fmt.Println("WARNING: stored profile does not match the observation")
	}
	// Output:
	// first run:  stored profile found: false
	//   ad-hoc:    JCT 1m10.631773s, hit 48.7%
	// second run: stored profile found: true (Profile{7 cached RDDs, 7 with reads})
	//   recurring: JCT 51.286509s, hit 87.3% (discrepancies: 0)
	// recurring vs ad-hoc JCT: 73%
}

// Custom policy: plug your own cache policy into the simulator and
// race it against the built-ins. The example implements "LRD" (least
// reference distance — deliberately inverted MRD) and a size-aware
// policy that evicts the largest block first, then runs both on
// ConnectedComponents next to LRU and MRD.
//
// A policy implements mrdspark.Policy for per-node decisions; the
// factory can additionally implement the observer interfaces in
// internal/policy to receive DAG and stage events.
func ExampleRunGraphWith() {
	spec, err := mrdspark.BuildWorkload("CC", mrdspark.WorkloadParams{})
	if err != nil {
		log.Fatal(err)
	}
	cl := mrdspark.MainCluster().WithCache(420 << 20)

	sizes := map[int]int64{}
	for _, r := range spec.Graph.RDDs {
		sizes[r.ID] = r.PartSize
	}
	custom := []mrdspark.PolicyFactory{
		&sizeFirst{sizes: sizes},
		&lrd{profile: refdist.FromGraph(spec.Graph)},
	}

	fmt.Printf("%-16s %-12s %-7s %s\n", "policy", "JCT", "hit", "recomputes")
	for _, name := range []string{"LRU", "MRD"} {
		run, err := mrdspark.Run(mrdspark.Config{Workload: "CC", Policy: name, CachePerNode: 420 << 20})
		if err != nil {
			log.Fatal(err)
		}
		report(run)
	}
	for _, f := range custom {
		run, err := mrdspark.RunGraphWith(spec.Graph, spec.Name, cl, f)
		if err != nil {
			log.Fatal(err)
		}
		report(run)
	}
	// Output:
	// policy           JCT          hit     recomputes
	// LRU              46.294589s    78.3%  0
	// MRD              32.203513s    91.6%  0
	// BiggestFirst     1m0.602708s   72.8%  0
	// LRD(inverted)    45.339321s    80.5%  0
}

func report(run mrdspark.Result) {
	fmt.Printf("%-16s %-12v %5.1f%%  %d\n", run.Policy, run.JCTDuration(), 100*run.HitRatio(), run.Recomputes)
}

// sizeFirst evicts the biggest resident block. Shared across nodes is
// nothing; the factory mints independent node policies.
type sizeFirst struct {
	sizes map[int]int64 // RDD -> partition size, from the DAG
}

func (s *sizeFirst) Name() string { return "BiggestFirst" }

func (s *sizeFirst) NewNodePolicy(int) mrdspark.Policy {
	return &sizeFirstNode{shared: s, resident: map[block.ID]bool{}}
}

type sizeFirstNode struct {
	shared   *sizeFirst
	resident map[block.ID]bool
}

func (n *sizeFirstNode) OnAdd(id block.ID)    { n.resident[id] = true }
func (n *sizeFirstNode) OnAccess(id block.ID) {}
func (n *sizeFirstNode) OnRemove(id block.ID) { delete(n.resident, id) }

func (n *sizeFirstNode) Victim(evictable func(block.ID) bool) (block.ID, bool) {
	best, found := block.ID{}, false
	var bestSize int64 = -1
	for id := range n.resident {
		if !evictable(id) {
			continue
		}
		size := n.shared.sizes[id.RDD]
		if size > bestSize || (size == bestSize && best.Less(id)) {
			best, bestSize, found = id, size, true
		}
	}
	return best, found
}

// lrd is the pathological twin of MRD: it evicts the block that will
// be referenced SOONEST. Racing it shows how much the eviction
// direction itself matters.
type lrd struct {
	profile  *refdist.Profile
	curStage int
}

func (l *lrd) Name() string                { return "LRD(inverted)" }
func (l *lrd) OnStageStart(stageID, _ int) { l.curStage = stageID }

func (l *lrd) NewNodePolicy(int) mrdspark.Policy {
	return &lrdNode{shared: l, resident: map[block.ID]bool{}}
}

type lrdNode struct {
	shared   *lrd
	resident map[block.ID]bool
}

func (n *lrdNode) OnAdd(id block.ID)    { n.resident[id] = true }
func (n *lrdNode) OnAccess(id block.ID) {}
func (n *lrdNode) OnRemove(id block.ID) { delete(n.resident, id) }

func (n *lrdNode) Victim(evictable func(block.ID) bool) (block.ID, bool) {
	const never = int(^uint(0) >> 1) // dead blocks are the last LRD evicts (!)
	best, bestDist, found := block.ID{}, never, false
	for id := range n.resident {
		if !evictable(id) {
			continue
		}
		d := n.shared.profile.StageDistance(id.RDD, n.shared.curStage)
		if refdist.IsInfinite(d) {
			d = never
		}
		// Ties go to the larger ID, so the map's order never shows.
		if !found || d < bestDist || (d == bestDist && best.Less(id)) {
			best, bestDist, found = id, d, true
		}
	}
	return best, found
}
