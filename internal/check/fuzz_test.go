package check

import (
	"sort"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/fault"
	"mrdspark/internal/obs"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/refdist"
	"mrdspark/internal/service"
	"mrdspark/internal/sim"
	"mrdspark/internal/workload"
)

// fuzzWorkload maps an arbitrary fuzz seed onto a small pool of
// generated workloads: the interesting state space is the operation
// interleaving, not the DAG count, and a bounded pool keeps every fuzz
// iteration cheap.
func fuzzWorkload(seed int64) *Workload {
	return Generate(GenConfig{Seed: seed&7 + 1})
}

// FuzzAdvisorSchedule drives the online advisor with an arbitrary
// interleaving of job submissions, stage advances (valid and invalid)
// and node failures, under the MRD variant the seed's upper bits pick.
// Whatever the order, the advisor must never panic, must reject
// out-of-protocol calls with errors, must decide at every advance it
// accepts exactly what internal/check/spec decides, and must keep the
// prefetch ledger conserved — and counted alike by the aggregator, with
// the invariant auditor clean over the live stream — after every
// operation.
func FuzzAdvisorSchedule(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 0, 1, 1, 2, 1, 0, 1, 1})
	f.Add(int64(3), []byte{0, 0, 0, 1, 1, 18, 1, 3, 1, 4, 1, 1, 1})
	f.Add(int64(5), []byte{1, 2, 34, 0, 1, 1, 50, 1, 0, 1, 1, 1, 1, 1})
	f.Add(int64(3+8*3), []byte{0, 0, 0, 1, 1, 18, 1, 3, 1, 4, 1, 1, 1})     // the job metric
	f.Add(int64(5+8*4), []byte{1, 2, 34, 0, 1, 1, 50, 1, 0, 1, 1, 1, 1, 1}) // ad-hoc
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		w := fuzzWorkload(seed)
		s := newSpecSession(t, w.Graph, w.Nodes, w.CacheBytes, int(uint64(seed)>>3%uint64(len(specVariants))))
		adv := s.adv
		bus := obs.New()
		agg := obs.NewAggregator()
		agg.Attach(bus)
		aud := NewAuditor(AuditorConfig{Nodes: w.Nodes, CacheBytes: w.CacheBytes})
		aud.AttachBus(bus)
		adv.AttachBus(bus)
		stages := w.Graph.ExecutedStages()
		idx := 0
		check := func(when string) {
			issued, used, wasted, pending := adv.PrefetchLedger()
			if err := ledgerAgrees(agg, ledger{issued, used, wasted}, pending); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			if err := aud.Err(); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
		}
		for _, b := range ops {
			switch b % 5 {
			case 0:
				_ = s.submit(adv.NextJob())
			case 1:
				if idx < len(stages) {
					if s.advance(stages[idx].ID) == nil {
						idx++
					}
				}
			case 2:
				_ = s.fail(int(b>>4) % w.Nodes)
			case 3:
				// A stage that is not part of the application must be an
				// error, never a panic or a state change.
				if s.advance(1<<20) == nil {
					t.Fatal("advance of a nonexistent stage succeeded")
				}
			case 4:
				// Out-of-order job submission must be rejected unless it
				// happens to be the next one.
				_ = s.submit(int(b >> 4))
			}
			check("mid-stream")
		}
		check("final")
		if err := aud.Finish(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzProfileAddJob feeds the ad-hoc profiler jobs in arbitrary
// (repeated, out-of-order) arrival orders. The profile must never
// panic, every RDD's read schedule must come back sorted by
// (stage, job), and Stats/NextRead must stay total.
func FuzzProfileAddJob(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2})
	f.Add(int64(2), []byte{2, 0, 1, 1, 0})
	f.Add(int64(6), []byte{3, 3, 0, 2, 1, 0})
	f.Fuzz(func(t *testing.T, seed int64, order []byte) {
		if len(order) > 32 {
			order = order[:32]
		}
		w := fuzzWorkload(seed)
		jobs := w.Graph.Jobs
		p := refdist.NewProfile()
		for _, b := range order {
			p.AddJob(jobs[int(b)%len(jobs)])
		}
		for _, id := range p.RDDs() {
			reads := p.Reads(id)
			if !sort.SliceIsSorted(reads, func(a, b int) bool { return reads[a].Less(reads[b]) }) {
				t.Fatalf("rdd %d: read schedule out of order: %v", id, reads)
			}
			for _, r := range reads {
				if _, ok := p.NextRead(id, r.Stage-1); !ok {
					t.Fatalf("rdd %d: NextRead before stage %d found nothing, but a read is scheduled there", id, r.Stage)
				}
			}
		}
		_ = p.Stats()
	})
}

// FuzzFaultSchedule decodes arbitrary bytes into a fault schedule.
// Whatever decodes and validates must run to completion through the
// simulator with the post-run audit and the invariant auditor clean;
// what fails validation must fail with an error, not a panic.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(int64(1), []byte{0, 2, 1, 3, 0, 4, 1, 0})
	f.Add(int64(2), []byte{1, 1, 1, 5, 2, 3, 1, 9})
	f.Add(int64(4), []byte{3, 2, 0, 7, 0, 1, 1, 0, 2, 4, 1, 2})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) > 24 {
			data = data[:24] // at most 6 events
		}
		w := fuzzWorkload(seed)
		cached := w.Graph.CachedRDDs()
		sched := &fault.Schedule{Seed: seed}
		for i := 0; i+4 <= len(data); i += 4 {
			kind, stage, node, extra := data[i], data[i+1], data[i+2], data[i+3]
			switch kind % 4 {
			case 0:
				sched.Events = append(sched.Events, fault.Event{
					Kind: fault.NodeCrash, Stage: int(stage % 12),
					Node: int(node), RejoinAfter: int(extra % 5),
				})
			case 1:
				sched.Events = append(sched.Events, fault.Event{
					Kind: fault.Straggler, Stage: int(stage % 12), Node: int(node),
					DiskFactor: float64(1 + extra%7), NetFactor: float64(1 + extra%5),
					Duration: 1 + int(stage%4),
				})
			case 2:
				sched.Events = append(sched.Events, fault.Event{
					Kind: fault.LoseBlock, Stage: int(stage % 12),
					Block: block.ID{RDD: cached[int(extra)%len(cached)].ID, Partition: int(node) % w.Nodes},
				})
			default:
				sched.Events = append(sched.Events, fault.Event{
					Kind: fault.CorruptBlock, Stage: int(stage % 12),
					Block: block.ID{RDD: cached[int(extra)%len(cached)].ID, Partition: int(node) % w.Nodes},
				})
			}
		}
		if err := sched.Validate(w.Nodes); err != nil {
			return // invalid schedules must be rejected, and were
		}
		p := policyspec.Spec{Kind: "MRD"}
		spec := &workload.Spec{Name: w.Name, Graph: w.Graph}
		s, err := sim.New(w.Graph, w.Cluster(), p.Factory(spec), w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetOptions(sim.Options{Fault: sched}); err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder()
		rec.Attach(s.Bus())
		s.Run()
		if err := s.Audit(); err != nil {
			t.Fatalf("sim audit under fuzzed faults %v: %v", sched.Events, err)
		}
		aud := NewAuditor(AuditorConfig{Nodes: w.Nodes, CacheBytes: w.CacheBytes})
		for _, ev := range rec.Events() {
			aud.Observe(ev)
		}
		if err := aud.Finish(); err != nil {
			t.Fatalf("auditor under fuzzed faults %v: %v", sched.Events, err)
		}
	})
}

// FuzzRegistryOps hammers the session registry with arbitrary
// create/get/delete/sweep interleavings. The registry must never
// panic, never exceed its session bound, and never resurrect a deleted
// session.
func FuzzRegistryOps(f *testing.F) {
	f.Add(uint8(2), []byte{0, 0, 0, 1, 2, 3, 0, 1})
	f.Add(uint8(1), []byte{0, 0, 2, 2, 0, 3})
	f.Add(uint8(5), []byte{0, 1, 0, 1, 0, 1, 2, 0, 3, 1})
	f.Fuzz(func(t *testing.T, max uint8, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		bound := 1 + int(max%8)
		r := service.NewRegistry(service.RegistryConfig{MaxSessions: bound})
		var ids []string
		deleted := map[string]bool{}
		for _, b := range ops {
			switch b % 4 {
			case 0:
				s := r.Create("fuzz", nil, nil, nil)
				ids = append(ids, s.ID)
			case 1:
				if len(ids) > 0 {
					id := ids[int(b>>2)%len(ids)]
					if s, ok := r.Get(id); ok {
						if deleted[id] {
							t.Fatalf("deleted session %s came back", id)
						}
						if s.ID != id {
							t.Fatalf("Get(%s) returned session %s", id, s.ID)
						}
					}
				}
			case 2:
				if len(ids) > 0 {
					id := ids[int(b>>2)%len(ids)]
					if r.Delete(id) {
						deleted[id] = true
					}
				}
			case 3:
				_ = r.SweepIdle()
			}
			if n := r.Len(); n > bound {
				t.Fatalf("registry holds %d sessions over its bound %d", n, bound)
			}
		}
	})
}
