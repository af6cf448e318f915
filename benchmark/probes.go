package main

import (
	"fmt"
	"time"

	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
	"mrdspark/internal/dag"
	"mrdspark/internal/experiments"
	"mrdspark/internal/obs"
	"mrdspark/internal/policy"
	"mrdspark/internal/refdist"
	"mrdspark/internal/sim"
	"mrdspark/internal/workload"
)

// Stand-alone probes: each times one exported function of one layer on
// inputs it builds itself, outside any workload's loop. A traced run
// reports the probes of the layers its workload's path enters; they are
// the price list the counters of that run are multiplied by.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// probeBlocks is a populated-store fixture: ids of n blocks of one RDD.
func probeBlocks(n int, size int64) []block.Info {
	g := dag.New()
	r := g.Source("probe", n, size)
	out := make([]block.Info, n)
	for p := range out {
		out[p] = block.Info{ID: r.Block(p), Size: size}
	}
	return out
}

// probeBuild prices DAG generation and reference-distance extraction.
func probeBuild(m metricSet, e effort, seed int64) {
	var specs []*workload.Spec
	m["workload.build_ms"] = e.best(func() float64 {
		start := time.Now()
		specs, _ = buildD4(seed) // setup already built the same set without error
		return float64(time.Since(start)) / 1e6
	})
	m["refdist.from_graph_us"] = e.best(func() float64 {
		start := time.Now()
		for _, ws := range specs {
			sink += len(refdist.FromGraph(ws.Graph).RDDs())
		}
		return float64(time.Since(start)) / 1e3 / float64(len(specs))
	})
}

// probeSimEngine prices the event engine and the event bus.
func probeSimEngine(m metricSet, e effort) {
	const events = 200000
	m["sim.engine_event_ns"] = e.best(func() float64 {
		eng := sim.NewEngine()
		count := 0
		var tick func()
		tick = func() {
			if count++; count < events {
				eng.After(1, tick)
			}
		}
		start := time.Now()
		eng.After(1, tick)
		eng.Run()
		return float64(time.Since(start)) / events
	})
	ev := obs.BlockEv(obs.KindHit, 3, block.ID{RDD: 7, Partition: 9}, 4096).WithValue(12).WithVerdict("mrd")
	bus := obs.New()
	m["obs.emit_disabled_ns"] = e.best(func() float64 {
		return e.perCall(events, func(int) { bus.Emit(ev) })
	})
	seen := 0
	detach := bus.Subscribe(func(obs.Event) { seen++ })
	m["obs.emit_enabled_ns"] = e.best(func() float64 {
		return e.perCall(events, func(int) { bus.Emit(ev) })
	})
	detach()
	sink += seen
}

// probeStores prices the cluster layer's stores on a populated node:
// the Contains/Get behind every ClusterOps query and modeled read, and a
// Put under pressure, which evicts one LRU victim each time.
func probeStores(m metricSet, e effort) {
	const resident = 512
	blocks := probeBlocks(2*resident, cluster.MB)
	mem := cluster.NewMemoryStore(resident*cluster.MB, policy.NewLRU().NewNodePolicy(0))
	disk := cluster.NewDiskStore()
	for _, b := range blocks[:resident] {
		mem.Put(b)
		disk.Put(b.ID, b.Size)
	}
	const calls = 200000
	hit := 0
	count := func(ok bool) {
		if ok {
			hit++
		}
	}
	m["cluster.memstore_contains_ns"] = e.best(func() float64 {
		return e.perCall(calls, func(i int) { count(mem.Contains(blocks[i%resident].ID)) })
	})
	m["cluster.memstore_get_ns"] = e.best(func() float64 {
		return e.perCall(calls, func(i int) { count(mem.Get(blocks[i%resident].ID)) })
	})
	m["cluster.diskstore_has_ns"] = e.best(func() float64 {
		return e.perCall(calls, func(i int) { count(disk.Has(blocks[i%resident].ID)) })
	})
	// The store is full: cycling through twice its capacity in blocks
	// makes every Put a miss that evicts exactly one resident block.
	next := resident
	m["cluster.memstore_put_evict_ns"] = e.best(func() float64 {
		return e.perCall(calls/4, func(int) {
			evicted, _ := mem.Put(blocks[next%len(blocks)])
			hit += len(evicted)
			next++
		})
	})
	sink += hit
}

// probeHook prices one OnAdd/OnAccess/OnRemove notification of the
// policy's node policy with a populated node — the unit cost of
// policy.hooks_calls.
func probeHook(e effort, p experiments.PolicySpec, ws *workload.Spec) float64 {
	f := p.Factory(ws)
	if so, ok := f.(policy.StageObserver); ok {
		first := ws.Graph.ExecutedStages()[0]
		so.OnStageStart(first.ID, first.FirstJob.ID)
	}
	node := f.NewNodePolicy(0)
	var ids []block.ID
	for _, r := range ws.Graph.CachedRDDs() {
		for q := 0; q < r.NumPartitions && len(ids) < 512; q++ {
			ids = append(ids, r.Block(q))
		}
	}
	for _, id := range ids {
		node.OnAdd(id)
	}
	const calls = 100000
	return e.best(func() float64 {
		// One third each: a remove/add pair keeps the population fixed.
		return e.perCall(calls, func(i int) {
			id := ids[i%len(ids)]
			switch i % 3 {
			case 0:
				node.OnAccess(id)
			case 1:
				node.OnRemove(id)
			case 2:
				node.OnAdd(ids[(i-1)%len(ids)])
			}
		})
	})
}

// sweepGrid is the 12-point grid of the repository's sweep benchmarks.
func sweepGrid() experiments.SweepConfig {
	return experiments.SweepConfig{
		Workloads: []string{"KM", "CC"},
		Seeds:     []int64{0},
		Clusters:  []cluster.Config{cluster.Main()},
		Fractions: []float64{0.6},
		Policies:  []experiments.PolicySpec{experiments.SpecLRU, experiments.SpecLRC, experiments.SpecMRD},
		Presets:   []string{"healthy", "crash"},
		Repls:     []int{1},
	}
}

// probeSweep prices the experiment fabric that sits on the simulator:
// the grid cold on 2 workers and on 1, and warm from the run cache.
func probeSweep(m metricSet) error {
	cfg := sweepGrid()
	want := len(cfg.Grid())
	sweep := func(workers int, cold bool) (float64, error) {
		if cold {
			experiments.ResetRunCache()
		}
		start := time.Now()
		res, err := experiments.RunSweep(cfg, workers)
		if err != nil {
			return 0, err
		}
		if len(res.Rows) != want {
			return 0, fmt.Errorf("sweep produced %d rows, want %d", len(res.Rows), want)
		}
		return float64(time.Since(start)) / 1e6, nil
	}
	defer experiments.ResetRunCache()
	cold2, err := sweep(2, true)
	if err != nil {
		return err
	}
	warm, err := sweep(2, false)
	if err != nil {
		return err
	}
	cold1, err := sweep(1, true)
	if err != nil {
		return err
	}
	m["experiments.sweep_cold_ms"] = cold2
	m["experiments.sweep_warm_ms"] = warm
	m["experiments.sweep_speedup_2w"] = cold1 / cold2
	return nil
}
