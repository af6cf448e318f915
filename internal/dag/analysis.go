package dag

import "slices"

// Ancestors returns every RDD reachable from r through any dependency
// (narrow or shuffle), in ascending ID order, excluding r itself.
func (r *RDD) Ancestors() []*RDD {
	seen := map[int]bool{}
	var out []*RDD
	var walk func(x *RDD)
	walk = func(x *RDD) {
		for _, d := range x.Deps {
			if seen[d.Parent.ID] {
				continue
			}
			seen[d.Parent.ID] = true
			out = append(out, d.Parent)
			walk(d.Parent)
		}
	}
	walk(r)
	slices.SortFunc(out, byRDDID)
	return out
}

// LineageDepth returns the length of the longest dependency chain from
// r back to a source (a source has depth 0).
func (r *RDD) LineageDepth() int {
	memo := map[int]int{}
	var depth func(x *RDD) int
	depth = func(x *RDD) int {
		if d, ok := memo[x.ID]; ok {
			return d
		}
		best := 0
		for _, dep := range x.Deps {
			if d := depth(dep.Parent) + 1; d > best {
				best = d
			}
		}
		memo[x.ID] = best
		return best
	}
	return depth(r)
}

// RestoreCost estimates the work, in compute microseconds, to rebuild
// one lost partition of r: its own compute cost plus that of every
// narrow ancestor up to the nearest materialized boundary. Shuffle
// dependencies stop the walk (map outputs stay on disk), as do cached
// ancestors (assumed present — this is an optimistic estimate) and
// sources (re-read is I/O, not compute). The estimate is what a
// restore-cost-aware tie-break trades off against block size.
func (g *Graph) RestoreCost(r *RDD) int64 {
	memo := map[int]int64{}
	var cost func(x *RDD) int64
	cost = func(x *RDD) int64 {
		if c, ok := memo[x.ID]; ok {
			return c
		}
		total := x.CostPerPart
		for _, d := range x.Deps {
			if d.Type != Narrow {
				continue
			}
			if d.Parent.Cached {
				continue
			}
			total += cost(d.Parent)
		}
		memo[x.ID] = total
		return total
	}
	return cost(r)
}

// CriticalPath returns the executed stages of the job ordered along
// its longest parent chain (result stage last) and the summed
// per-partition compute cost of their targets — a rough lower bound on
// the job's serial fraction.
func (j *Job) CriticalPath() (stages []*Stage, computeUs int64) {
	memo := map[int]struct {
		chain []*Stage
		cost  int64
	}{}
	var walk func(s *Stage) ([]*Stage, int64)
	walk = func(s *Stage) ([]*Stage, int64) {
		if m, ok := memo[s.ID]; ok {
			return m.chain, m.cost
		}
		var bestChain []*Stage
		var bestCost int64 = -1
		for _, p := range s.Parents {
			chain, cost := walk(p)
			if cost > bestCost {
				bestChain, bestCost = chain, cost
			}
		}
		if bestCost < 0 {
			bestCost = 0
		}
		chain := append(append([]*Stage{}, bestChain...), s)
		cost := bestCost + s.Target.CostPerPart
		memo[s.ID] = struct {
			chain []*Stage
			cost  int64
		}{chain, cost}
		return chain, cost
	}
	return walk(j.ResultStage)
}
