package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/dag"
	"mrdspark/internal/refdist"
)

// victimGraph builds a random application for the victim fuzz: cached
// RDDs of mixed sizes and storage levels (so every tie-break has ties
// to break), each created by the first job that reads it.
func victimGraph(rng *rand.Rand) *dag.Graph {
	g := dag.New()
	src := g.Source("in", 2+rng.Intn(4), 1<<10)
	cached := make([]*dag.RDD, 2+rng.Intn(6))
	for i := range cached {
		level := block.MemoryAndDisk
		if rng.Intn(3) == 0 {
			level = block.MemoryOnly
		}
		cached[i] = src.Map("c", dag.WithCost(10+rng.Int63n(90)),
			dag.WithPartSize(int64(1+rng.Intn(3))<<10)).Persist(level)
	}
	for j := 3 + rng.Intn(10); j > 0; j-- {
		r := cached[rng.Intn(len(cached))]
		if rng.Intn(3) == 0 {
			r = r.ZipPartitions("z", cached[rng.Intn(len(cached))])
		}
		g.Count(r.Map("use", dag.WithCost(10)))
	}
	return g
}

// naiveVictim is the victim rule stated as a full walk: on a stale
// table or with MRD eviction off, the least recently used evictable
// block; otherwise the evictable block of greatest distance (infinite
// greatest of all), equal distances going to the configured tie-break
// and then to the least recently used.
func naiveVictim(c *CacheMonitor, evictable func(block.ID) bool) (block.ID, bool) {
	m := c.mgr
	if m.tableStale(c.node) || m.opts.DisableEviction {
		return c.order.Victim(evictable)
	}
	rank := func(id block.ID) int {
		if d := m.distance(id.RDD); !refdist.IsInfinite(d) {
			return d
		}
		return math.MaxInt
	}
	var best block.ID
	found := false
	for cur := c.order.Oldest(); cur != 0; cur = c.order.Newer(cur) {
		id := c.order.ID(cur)
		if !evictable(id) {
			continue
		}
		if !found || rank(id) > rank(best) {
			best, found = id, true
			continue
		}
		if rank(id) < rank(best) {
			continue
		}
		var beats bool
		switch m.opts.TieBreak {
		case TieLargestFirst:
			beats = c.blockSize(id) > c.blockSize(best)
		case TieSmallestFirst:
			beats = c.blockSize(id) < c.blockSize(best)
		case TieCheapestRestore:
			beats = c.restoreCost(id) < c.restoreCost(best)
		}
		if beats {
			best = id
		}
	}
	return best, found
}

// naiveWorthForcing walks every resident block: is one of them further
// away than dist?
func naiveWorthForcing(c *CacheMonitor, dist int) bool {
	for cur := c.order.Oldest(); cur != 0; cur = c.order.Newer(cur) {
		if d := c.mgr.distance(c.order.ID(cur).RDD); refdist.IsInfinite(d) || d > dist {
			return true
		}
	}
	return false
}

// victimScript is a seed script for FuzzMonitorVictim: 200 steps
// weighted so that nodes fill up (arrivals outnumber removals) and the
// table moves under them.
func victimScript(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	weights := []int{35, 12, 10, 10, 8, 3, 11, 11} // by operation
	var script []byte
	for step := 0; step < 200; step++ {
		w := rng.Intn(100)
		op := 0
		for w >= weights[op] {
			w -= weights[op]
			op++
		}
		script = append(script, byte(op), byte(rng.Intn(256)))
	}
	return script
}

// FuzzMonitorVictim drives a manager and its monitors through a script
// — two bytes a step: an operation and its argument — of block
// arrivals, reads and removals, stage advances, job submissions and
// node failures, and compares every Victim answer with naiveVictim and
// every worthForcing answer with naiveWorthForcing. The seed picks the
// graph, the tie-break, the metric, the mode and the re-issue delay.
// Victim is asked the way the store asks: PutGuarded's growing plan of
// victims to skip, and filters that reject a random subset.
func FuzzMonitorVictim(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed, victimScript(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		rng := rand.New(rand.NewSource(seed))
		g := victimGraph(rng)
		u := uint64(seed)
		opts := Options{
			TieBreak:           TieBreak(u % 4),
			Metric:             Metric(u >> 2 % 2),
			ReissueDelayStages: int(u >> 4 % 3),
		}
		profiler := NewRecurringProfiler(refdist.FromGraph(g))
		if u>>3%2 == 1 {
			profiler = NewAppProfiler()
		}
		m := NewManager(g, profiler, opts)
		nodes := 2 + int(u>>6%2)
		ops := newFakeOps(m, nodes, 8<<10)
		var blocks []block.ID
		for _, r := range g.CachedRDDs() {
			for p := 0; p < r.NumPartitions; p++ {
				blocks = append(blocks, r.Block(p))
			}
		}
		stages := g.ExecutedStages()
		nextStage, nextJob := 0, 0

		check := func(step int, node int, evictable func(block.ID) bool) (block.ID, bool) {
			mon := m.monitors[node]
			got, ok := mon.Victim(evictable)
			want, wantOK := naiveVictim(mon, evictable)
			if got != want || ok != wantOK {
				t.Fatalf("step %d, node %d, %v: Victim = %v, %v; full walk %v, %v",
					step, node, opts.TieBreak, got, ok, want, wantOK)
			}
			return got, ok
		}
		for step := 0; step+1 < len(script); step += 2 {
			op, arg := script[step], script[step+1]
			id := blocks[int(arg)%len(blocks)]
			home := ops.HomeNode(id)
			switch op % 8 {
			case 0:
				ops.admit(id)
			case 1:
				ops.pol[home].OnAccess(id)
			case 2:
				if ops.resident[id] {
					delete(ops.resident, id)
					ops.pol[home].OnRemove(id)
				}
			case 3:
				if nextStage < len(stages) {
					st := stages[nextStage]
					nextStage++
					m.OnStageStart(st.ID, st.FirstJob.ID)
				}
			case 4:
				if nextJob < len(g.Jobs) {
					m.OnJobSubmit(g.Jobs[nextJob])
					nextJob++
				}
			case 5:
				// The failed node's store empties, before the manager
				// hears of it or (bit 0x40) after; the high bit deploys a
				// replacement monitor over the old one.
				node := int(arg&0x3f) % nodes
				if arg&0x40 != 0 {
					m.OnNodeFailure(node)
				}
				for _, b := range blocks {
					if ops.resident[b] && ops.HomeNode(b) == node {
						delete(ops.resident, b)
						ops.pol[node].OnRemove(b)
					}
				}
				if arg&0x40 == 0 {
					m.OnNodeFailure(node)
				}
				if arg&0x80 != 0 {
					ops.pol[node] = m.NewNodePolicy(node)
				}
			case 6:
				// PutGuarded's shape: each answer joins the plan the next
				// call must skip, with the incoming block excluded.
				node := int(arg) % nodes
				incoming := blocks[int(arg>>4)%len(blocks)]
				var plan []block.ID
				unplanned := func(v block.ID) bool { return v != incoming && !slices.Contains(plan, v) }
				for {
					v, ok := check(step, node, unplanned)
					if !ok {
						break
					}
					plan = append(plan, v)
				}
			case 7:
				node := int(arg) % nodes
				subset := func(v block.ID) bool { return arg>>((v.RDD*7+v.Partition)%8)&1 == 0 }
				check(step, node, subset)
			}
			for node, mon := range m.monitors {
				for dist := 0; dist <= len(stages)+1; dist++ {
					if got, want := m.worthForcing(node, dist), naiveWorthForcing(mon, dist); got != want {
						t.Fatalf("step %d, node %d: worthForcing(%d) = %v, full walk %v", step, node, dist, got, want)
					}
				}
			}
		}
	})
}
