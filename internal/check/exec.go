package check

import (
	"fmt"

	"mrdspark/internal/exec"
	"mrdspark/internal/obs"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/workload"
)

// execLeg is one real execution of a workload — generated rows moving
// through the operators on the master/worker runtime, with the live
// block manager making the cache decisions the other legs only model.
type execLeg struct {
	res    exec.Result
	events []obs.Event
	agg    *obs.Aggregator
}

// execRows keeps the differential suite's executed data plane small:
// the decision plane is independent of row count, and tiny partitions
// keep a 6-workload × 2-seed × 4-policy sweep fast.
const execRows = 32

func runExecLeg(w *Workload, p policyspec.Spec, dataSeed int64, kill *exec.KillSpec) (*execLeg, error) {
	spec := &workload.Spec{
		Name:   w.Name,
		Graph:  w.Graph,
		Params: workload.Params{Seed: dataSeed, DataRows: execRows},
	}
	e, err := exec.New(spec, exec.Config{
		Workers:    w.Nodes,
		CacheBytes: w.CacheBytes,
		Policy:     p,
		Kill:       kill,
	})
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	bus := obs.New()
	rec := obs.NewRecorder()
	rec.Attach(bus)
	agg := obs.NewAggregator()
	agg.Attach(bus)
	e.AttachBus(bus)
	res, err := e.Run()
	if err != nil {
		return nil, fmt.Errorf("exec run: %w", err)
	}
	return &execLeg{res: res, events: rec.Events(), agg: agg}, nil
}

// DiffExec runs one workload through the real execution engine and
// holds it to the modeled legs:
//
//   - Two executions produce byte-identical per-stage advice
//     fingerprints, job output digests and data-plane counters — the
//     engine is deterministic despite its concurrency.
//   - The executed advice fingerprints are byte-identical to the online
//     advisor's over the same graph, policy and cluster shape — for
//     EVERY policy: the engine drives an Advisor of its own, so this
//     leg proves its driving order (kills, submissions, boundaries) and
//     its byte-plane hook never perturb the accounting.
//   - For class A policies the executed per-stage decision digests also
//     match the batch simulator's: sim-predicted and executed cache
//     decisions are the same decisions.
//   - The executed event stream survives JSONL exactly, rebuilds the
//     same Prometheus exposition on replay, and passes the invariant
//     auditor, prefetch ledger included; and the engine reads exactly
//     the blocks the DAG forces.
func DiffExec(w *Workload, p policyspec.Spec, dataSeed int64) error {
	exA, err := runExecLeg(w, p, dataSeed, nil)
	if err != nil {
		return err
	}
	exB, err := runExecLeg(w, p, dataSeed, nil)
	if err != nil {
		return err
	}
	if err := sameExec(exA, exB); err != nil {
		return fmt.Errorf("exec is nondeterministic: %w", err)
	}

	adv, err := runAdvisorLeg(w, p)
	if err != nil {
		return err
	}
	if len(exA.res.History) != len(adv.advice) {
		return fmt.Errorf("exec ran %d stages, advisor advised %d", len(exA.res.History), len(adv.advice))
	}
	for i := range adv.advice {
		fe, fa := exA.res.History[i].Fingerprint(), adv.advice[i].Fingerprint()
		if fe != fa {
			return fmt.Errorf("executed advice diverged from advisor at stage %d:\n  exec:    %s\n  advisor: %s",
				adv.advice[i].Stage, fe, fa)
		}
	}

	if ClassA(p) {
		sim, err := runSimLeg(w, p)
		if err != nil {
			return err
		}
		if d := diffDigests("sim", StageDigests(sim.events), "exec", StageDigests(exA.events)); d != "" {
			return fmt.Errorf("sim-predicted vs executed decisions diverge: %s", d)
		}
	}

	if err := roundTrip(exA.events); err != nil {
		return fmt.Errorf("exec stream: %w", err)
	}
	if err := samePrometheus(exA.agg, obs.Replay(exA.events)); err != nil {
		return fmt.Errorf("exec stream: %w", err)
	}
	if err := audit(w, exA.events); err != nil {
		return fmt.Errorf("exec stream: %w", err)
	}
	r := exA.res
	if got := r.Counters.Hits + r.Counters.Misses; got != w.TotalReads {
		return fmt.Errorf("exec read %d blocks, DAG forces %d", got, w.TotalReads)
	}
	return nil
}

// DiffExecKill kills one worker mid-run — once deterministically at a
// stage boundary, once mid-stage under the running task wave — and
// demands the job still completes with byte-identical output to a
// clean run (the lineage-recompute guarantee), with the boundary kill
// additionally reproducing its own decision fingerprints exactly.
func DiffExecKill(w *Workload, p policyspec.Spec, dataSeed int64) error {
	clean, err := runExecLeg(w, p, dataSeed, nil)
	if err != nil {
		return err
	}
	stages := w.Graph.ExecutedStages()
	if len(stages) < 2 || w.Nodes < 2 {
		return fmt.Errorf("workload %s too small for a kill leg", w.Name)
	}
	kill := exec.KillSpec{Worker: 1, Stage: stages[len(stages)/2].ID}

	bdyA, err := runExecLeg(w, p, dataSeed, &kill)
	if err != nil {
		return fmt.Errorf("boundary kill: %w", err)
	}
	bdyB, err := runExecLeg(w, p, dataSeed, &kill)
	if err != nil {
		return fmt.Errorf("boundary kill: %w", err)
	}
	if err := sameExec(bdyA, bdyB); err != nil {
		return fmt.Errorf("boundary kill is nondeterministic: %w", err)
	}
	if err := sameOutput(clean, bdyA); err != nil {
		return fmt.Errorf("boundary kill changed the answer: %w", err)
	}
	if got := bdyA.res.Counters.Hits + bdyA.res.Counters.Misses; got != w.TotalReads {
		return fmt.Errorf("killed run read %d blocks, DAG forces %d", got, w.TotalReads)
	}

	midKill := kill
	midKill.Mid = true
	mid, err := runExecLeg(w, p, dataSeed, &midKill)
	if err != nil {
		return fmt.Errorf("mid-stage kill: %w", err)
	}
	if err := sameOutput(clean, mid); err != nil {
		return fmt.Errorf("mid-stage kill changed the answer: %w", err)
	}
	return nil
}

// sameExec demands two executions are indistinguishable: same advice
// fingerprints, same outputs, same data-plane counters.
func sameExec(a, b *execLeg) error {
	if len(a.res.History) != len(b.res.History) {
		return fmt.Errorf("%d stages vs %d", len(a.res.History), len(b.res.History))
	}
	for i := range a.res.History {
		fa, fb := a.res.History[i].Fingerprint(), b.res.History[i].Fingerprint()
		if fa != fb {
			return fmt.Errorf("advice %d:\n  %s\n  %s", i, fa, fb)
		}
	}
	if err := sameOutput(a, b); err != nil {
		return err
	}
	ra, rb := a.res, b.res
	if ra.TasksRun != rb.TasksRun || ra.Spills != rb.Spills || ra.SpillBytes != rb.SpillBytes ||
		ra.ShuffleBytes != rb.ShuffleBytes || ra.LineageRecomputes != rb.LineageRecomputes {
		return fmt.Errorf("data counters differ: tasks %d/%d spills %d/%d spillB %d/%d shuffleB %d/%d lineage %d/%d",
			ra.TasksRun, rb.TasksRun, ra.Spills, rb.Spills, ra.SpillBytes, rb.SpillBytes,
			ra.ShuffleBytes, rb.ShuffleBytes, ra.LineageRecomputes, rb.LineageRecomputes)
	}
	return nil
}

// sameOutput demands two executions computed the same answer.
func sameOutput(a, b *execLeg) error {
	if a.res.OutputDigest != b.res.OutputDigest {
		return fmt.Errorf("output digests %#x vs %#x", a.res.OutputDigest, b.res.OutputDigest)
	}
	if len(a.res.JobDigests) != len(b.res.JobDigests) {
		return fmt.Errorf("%d job digests vs %d", len(a.res.JobDigests), len(b.res.JobDigests))
	}
	for i := range a.res.JobDigests {
		if a.res.JobDigests[i] != b.res.JobDigests[i] {
			return fmt.Errorf("job %d digests %#x vs %#x", i, a.res.JobDigests[i], b.res.JobDigests[i])
		}
	}
	return nil
}

// ExecPolicies is the policy matrix the sim-vs-exec suite sweeps: the
// two classic baselines, eviction-only MRD (class A, so sim-exact),
// and full MRD with prefetching (advisor-exact).
var ExecPolicies = []policyspec.Spec{
	policyspec.LRU,
	policyspec.LRC,
	policyspec.MRDEvictOnly,
	policyspec.MRD,
}
