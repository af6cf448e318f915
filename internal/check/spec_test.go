package check

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/check/spec"
	"mrdspark/internal/cluster"
	"mrdspark/internal/core"
	"mrdspark/internal/dag"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/service"
	"mrdspark/internal/workload"
)

// specVariants are the configurations internal/check/spec states: each
// as the Advisor is asked for it and as the spec is.
var specVariants = []struct {
	policy policyspec.Spec
	cfg    spec.Config
}{
	{policyspec.MRD, spec.Config{}},
	{policyspec.MRDEvictOnly, spec.Config{NoPrefetch: true}},
	{policyspec.MRDPrefetchOnly, spec.Config{NoEviction: true}},
	{policyspec.Spec{Kind: "MRD", MRD: core.Options{Metric: core.JobDistance}}, spec.Config{JobMetric: true}},
	{policyspec.Spec{Kind: "MRD", AdHoc: true}, spec.Config{AdHoc: true}},
}

// specFingerprint renders the spec's advice as service.Advice.Fingerprint
// renders the Advisor's.
func specFingerprint(a spec.Advice) string {
	var b strings.Builder
	fmt.Fprintf(&b, "stage=%d job=%d", a.Stage, a.Job)
	for _, d := range a.Decisions {
		fmt.Fprintf(&b, " %s:%d:%s", d.Kind, d.Node, d.Block)
	}
	fmt.Fprintf(&b, " | hits=%d misses=%d promotes=%d recomputes=%d inserts=%d evictions=%d purged=%d prefetches=%d",
		a.Hits, a.Misses, a.Promotes, a.Recomputes, a.Inserts, a.Evictions, a.Purged, a.Prefetches)
	return b.String()
}

// specTally counts what a set of spec runs exercised, by decision kind
// and by the names below, so that agreement cannot be vacuous.
type specTally map[string]int

func (t specTally) add(o specTally) {
	for k, n := range o {
		t[k] += n
	}
}

// exercised fails unless every branch of Algorithm 1 and of the store
// accounting was taken at least once.
func (t specTally) exercised(tb testing.TB) {
	tb.Helper()
	for _, k := range []string{"advance", "purge", "fitting order", "forced order", "prefetch-evict", "prefetch-drop",
		"evict", "promote", "recompute", "fully held RDD", "partly held RDD", "node failure"} {
		if t[k] == 0 {
			tb.Errorf("the corpus never exercised a %s: %v", k, t)
		}
	}
}

// specSession is an Advisor and the spec's Model of the same session,
// driven in step and compared after every advance.
type specSession struct {
	tb    testing.TB
	g     *dag.Graph
	nodes int
	// prefetching: the variant has a prefetch phase, whose candidate RDDs
	// the tally counts as fully or partly held.
	prefetching bool
	adv         *service.Advisor
	model       *spec.Model
	specTally
}

func newSpecSession(tb testing.TB, g *dag.Graph, nodes int, cacheBytes int64, variant int) *specSession {
	v := specVariants[variant]
	adv, err := service.NewAdvisor(g, service.AdvisorConfig{Nodes: nodes, CacheBytes: cacheBytes, Policy: v.policy})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := v.cfg
	cfg.Nodes, cfg.CacheBytes = nodes, cacheBytes
	s := &specSession{tb: tb, g: g, nodes: nodes, prefetching: !cfg.NoPrefetch, adv: adv, model: spec.New(g, cfg), specTally: specTally{}}
	if !cfg.NoEviction {
		// ROADMAP 2c: a demand eviction under MRD never takes a block
		// whose distance is smaller than a survivor's on that node.
		s.model.Evicting = func(node int, victim block.ID) {
			for _, b := range s.model.Resident(node) {
				if s.model.Distance(b.ID.RDD) > s.model.Distance(victim.RDD) {
					tb.Errorf("node %d evicts %v at distance %d and keeps %v at %d",
						node, victim, s.model.Distance(victim.RDD), b.ID, s.model.Distance(b.ID.RDD))
				}
			}
		}
	}
	return s
}

func (s *specSession) submit(job int) error {
	err := s.adv.SubmitJob(job)
	if err == nil {
		s.model.SubmitJob(job)
	}
	return err
}

func (s *specSession) fail(node int) error {
	err := s.adv.OnNodeFailure(node)
	if err == nil {
		s.model.FailNode(node)
		s.specTally["node failure"]++
	}
	return err
}

// advance advances both and demands the same fingerprint of them.
func (s *specSession) advance(stage int) error {
	got, err := s.adv.Advance(stage)
	if err != nil {
		return err
	}
	var before []block.Info // memory as the prefetch phase will find it: a purge takes only dead RDDs
	for n := 0; n < s.nodes; n++ {
		before = append(before, s.model.Resident(n)...)
	}
	want := s.model.Advance(stage)
	if g, w := got.Fingerprint(), specFingerprint(want); g != w {
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		from := strings.LastIndexByte(g[:i], ' ') + 1
		s.tb.Fatalf("%s, stage %d: the Advisor says %q where internal/check/spec says %q\n advisor: %s\n    spec: %s",
			s.adv.PolicyName(), stage, word(g[from:]), word(w[from:]), g, w)
	}
	s.specTally["advance"]++
	s.specTally["promote"] += want.Promotes
	s.specTally["recompute"] += want.Recomputes
	for i, d := range want.Decisions {
		s.specTally[d.Kind]++
		switch {
		case d.Kind == "prefetch-drop", d.Kind == "prefetch" && i > 0 && want.Decisions[i-1].Kind == "prefetch-evict":
			s.specTally["forced order"]++ // it had to evict: only such an order can be refused
		case d.Kind == "prefetch":
			s.specTally["fitting order"]++
		}
	}
	for _, r := range s.g.CachedRDDs() {
		if d := s.model.Distance(r.ID); !s.prefetching || d == spec.Inf || d < 1 {
			continue
		}
		held := 0
		for p := 0; p < r.NumPartitions; p++ {
			if slices.Contains(before, r.BlockInfo(p)) {
				held++
			}
		}
		if held == r.NumPartitions {
			s.specTally["fully held RDD"]++
		} else if held > 0 {
			s.specTally["partly held RDD"]++
		}
	}
	return nil
}

// word is the text up to the first space.
func word(s string) string {
	w, _, _ := strings.Cut(s, " ")
	return w
}

// replay drives the canonical schedule, failing a node before every
// failEvery-th advance (0: never).
func (s *specSession) replay(failEvery int) specTally {
	advanced := 0
	for _, st := range service.Schedule(s.g) {
		var err error
		if st.Stage < 0 {
			err = s.submit(st.Job)
		} else {
			if advanced++; failEvery > 0 && advanced%failEvery == 0 {
				if err := s.fail(advanced / failEvery % s.nodes); err != nil {
					s.tb.Fatal(err)
				}
			}
			err = s.advance(st.Stage)
		}
		if err != nil {
			s.tb.Fatal(err)
		}
	}
	return s.specTally
}

// TestSpecMatchesAdvisor holds service.Advisor to internal/check/spec,
// fingerprint for fingerprint, for every variant the spec states: over
// the generator corpus, clean and with a node failing before every
// third advance, and over every registry workload at two cache sizes.
func TestSpecMatchesAdvisor(t *testing.T) {
	total := specTally{}
	t.Run("gen", func(t *testing.T) {
		for seed := int64(1); seed <= diffSeeds; seed++ {
			w := Generate(GenConfig{Seed: seed})
			for _, failEvery := range []int{0, 3} {
				t.Run(fmt.Sprintf("seed%d/fail-every-%d", seed, failEvery), func(t *testing.T) {
					for v := range specVariants {
						total.add(newSpecSession(t, w.Graph, w.Nodes, w.CacheBytes, v).replay(failEvery))
					}
				})
			}
		}
	})
	t.Run("registry", func(t *testing.T) {
		for _, name := range workload.Names() {
			w, err := workload.Build(name, workload.Params{})
			if err != nil {
				t.Fatal(err)
			}
			for _, cache := range []int64{64 * cluster.MB, 160 * cluster.MB} {
				t.Run(fmt.Sprintf("%s/%dM", name, cache/cluster.MB), func(t *testing.T) {
					for v := range specVariants {
						total.add(newSpecSession(t, w.Graph, cluster.Main().Nodes, cache, v).replay(0))
					}
				})
			}
		}
	})
	t.Logf("exercised: %v", total)
	total.exercised(t)
}

// oneNodeGraph starts the two hand-built graphs below: on one node of
// 4 MB, job 0 caches a (4 MB: it fills the node) and job 1 caches b
// (3 MB), whose insert evicts a to disk and leaves exactly a quarter of
// the memory free.
func oneNodeGraph() (g *dag.Graph, src, a, b *dag.RDD) {
	g = dag.New()
	src = g.Source("src", 1, cluster.MB)
	a = src.ReduceByKey("a", dag.WithPartSize(4*cluster.MB)).Persist(block.MemoryAndDisk)
	g.Count(a)
	b = src.GroupByKey("b", dag.WithPartSize(3*cluster.MB)).Persist(block.MemoryAndDisk)
	g.Count(b)
	return g, src, a, b
}

// pinned replays the graph under the variant, spec beside Advisor, and
// demands the advice of one stage.
func pinned(t *testing.T, g *dag.Graph, variant, stage int, want string) {
	t.Helper()
	s := newSpecSession(t, g, 1, 4*cluster.MB, variant)
	s.replay(0)
	if adv, _ := s.adv.AdviceFor(stage); adv.Fingerprint() != want {
		t.Errorf("stage %d:\n got %s\nwant %s", stage, adv.Fingerprint(), want)
	}
}

// TestSpecForcedGateAtExactlyAQuarter: at stage 4 the node has exactly
// 25 % of its memory free and a, one stage from its read and on disk,
// does not fit. §4.3 forces a prefetch only while *more* than the
// threshold is free, so no order goes out.
func TestSpecForcedGateAtExactlyAQuarter(t *testing.T) {
	g, _, a, b := oneNodeGraph()
	g.Count(b) // job 2, stage 4
	g.Count(a) // job 3, stage 5
	pinned(t, g, 0, 3, fmt.Sprintf("stage=3 job=1 evict:0:%v | hits=0 misses=0 promotes=0 recomputes=0 inserts=1 evictions=1 purged=0 prefetches=0", a.Block(0)))
	pinned(t, g, 0, 4, "stage=4 job=2 | hits=1 misses=0 promotes=0 recomputes=0 inserts=0 evictions=0 purged=0 prefetches=0")
	pinned(t, g, 0, 5, fmt.Sprintf("stage=5 job=3 purge:0:%v | hits=0 misses=1 promotes=1 recomputes=0 inserts=1 evictions=0 purged=1 prefetches=0", b.Block(0)))
}

// TestSpecJobMetricSkipsDistanceZero: job 2's first stage reads nothing
// cached and its second reads a, which is on disk, while b's purge has
// emptied the memory. In stages a is one away and is prefetched — it
// fits the free memory to the byte, so it lands evicting nothing; in
// jobs it is at distance 0 — a read of the running job — and is not.
func TestSpecJobMetricSkipsDistanceZero(t *testing.T) {
	g, src, a, b := oneNodeGraph()
	g.Count(src.SortByKey("c").ZipPartitions("z", a)) // job 2: stage 4, then stage 5 reads a
	pinned(t, g, 0, 4, fmt.Sprintf("stage=4 job=2 purge:0:%v prefetch:0:%v | hits=0 misses=0 promotes=0 recomputes=0 inserts=0 evictions=0 purged=1 prefetches=1", b.Block(0), a.Block(0)))
	pinned(t, g, 3, 4, fmt.Sprintf("stage=4 job=2 purge:0:%v | hits=0 misses=0 promotes=0 recomputes=0 inserts=0 evictions=0 purged=1 prefetches=0", b.Block(0)))
}
