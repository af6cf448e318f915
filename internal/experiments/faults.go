package experiments

import (
	"mrdspark/internal/cluster"
	"mrdspark/internal/core"
	"mrdspark/internal/fault"
	"mrdspark/internal/metrics"
	"mrdspark/internal/workload"
)

// The fault studies measure what paper §4.4 only describes: recovery
// from node loss (failure) and from escalating seeded fault schedules
// at two replication factors (chaos). Their rows report the MRD
// manager's re-issue counters, which the run cache does not carry, so
// they simulate directly.

// faultFor builds the seeded schedule for a preset at a replication
// factor, scaled to the cluster and DAG. "healthy" (and "") is the
// no-event baseline: replication still costs replica writes, so the
// baseline pays them too and chaos overhead columns isolate the faults.
func faultFor(preset string, nodes, stages, repl int) (*fault.Schedule, error) {
	if preset == "" || preset == "healthy" {
		return &fault.Schedule{Seed: 42, Replication: repl}, nil
	}
	sched, err := fault.Preset(preset, nodes, stages)
	if err != nil {
		return nil, err
	}
	sched.Replication = repl
	return sched, nil
}

// faultCase is one labelled schedule; nil is the plain healthy run.
type faultCase struct {
	label string
	sched *fault.Schedule
}

// faultRow measures one policy on one workload under one fault case.
type faultRow struct {
	workload, policy string
	label            string // preset name, or the stage a node was lost at
	repl             int
	run              metrics.Run
	// overhead is the JCT relative to the same policy's healthy run at
	// the same replication factor.
	overhead float64
	// stats carry the MRD_Table re-sends and stale-table node-stages
	// (zero for other policies).
	stats core.Stats
}

// underFaults simulates the policy under each case; the first case is
// the healthy baseline that anchors the overhead column.
func (s scenario) underFaults(p PolicySpec, repl int, cases []faultCase) []faultRow {
	rows := make([]faultRow, len(cases))
	var healthy int64
	for i, c := range cases {
		out := s.simulate(p, c.sched, false)
		if i == 0 {
			healthy = out.run.JCT
		}
		rows[i] = faultRow{s.spec.Name, p.Name(), c.label, repl, out.run,
			float64(out.run.JCT) / float64(healthy), out.stats}
	}
	return rows
}

// failureSweep kills one node at the 25%, 50% and 75% marks of each
// workload's executed stages and reports the recovery cost under full
// MRD: lost blocks recompute from lineage (or re-read from surviving
// replicas' shuffle data), and the manager re-issues the table.
func failureSweep(cfg cluster.Config) []faultRow {
	return flatRows([]string{"CC", "KM", "SVD"}, func(name string) []faultRow {
		s := open(name, workload.Params{}, cfg).sized(0.85)
		return s.underFaults(SpecMRD, 1, failureCases(s))
	})
}

func failureCases(s scenario) []faultCase {
	cases := []faultCase{{"healthy", nil}}
	for _, mark := range []float64{0.25, 0.5, 0.75} {
		at := int(float64(s.spec.Graph.ActiveStages()) * mark)
		cases = append(cases, faultCase{itoa(at), fault.Crash(1, at)})
	}
	return cases
}

func renderFailure(rows []faultRow) string {
	t := Table{
		Title:  "Fault tolerance: one worker lost mid-run (full MRD; paper §4.4's recovery path, measured)",
		Header: []string{"Workload", "FailAtStage", "JCT", "Overhead", "Hit", "Recomputes", "TableReissues"},
		Note: "Overhead is JCT relative to the healthy run. Node loss wipes memory AND local disk,\n" +
			"so restorable blocks on the failed node recompute from lineage at their next reference.",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.workload, r.label, r.run.JCTDuration().String(), pct(r.overhead),
			pct1(r.run.HitRatio()), itoa(int(r.run.Recomputes)), itoa(r.stats.TableReissues),
		})
	}
	return t.Render()
}

// chaosPresets is the escalation ladder the suite runs: one crash, a
// crash that heals, two rolling crashes, and the combined chaos
// schedule.
var chaosPresets = []string{"crash", "crash-rejoin", "rolling", "chaos"}

// chaosPolicies are the policies the chaos sweep compares. MRD runs
// with a one-stage table re-issue delay, exercising the graceful
// recency fallback rather than the paper's instantaneous-reissue
// idealization.
var chaosPolicies = []PolicySpec{
	{Kind: "MRD", MRD: core.Options{ReissueDelayStages: 1}, Label: "MRD"},
	SpecLRU,
	SpecLRC,
}

// chaosSweep runs MRD against LRU and LRC under escalating fault
// schedules and replication factors. Every schedule is seeded, so each
// row is exactly reproducible.
func chaosSweep(cfg cluster.Config, names, presets []string, repls []int) []faultRow {
	return flatRows(names, func(name string) []faultRow {
		s := open(name, workload.Params{}, cfg).sized(0.85)
		var rows []faultRow
		for _, p := range chaosPolicies {
			for _, repl := range repls {
				rows = append(rows, s.underFaults(p, repl, chaosCases(s, presets, repl))...)
			}
		}
		return rows
	})
}

func chaosCases(s scenario, presets []string, repl int) []faultCase {
	var cases []faultCase
	for _, preset := range append([]string{"healthy"}, presets...) {
		sched, err := faultFor(preset, s.cfg.Nodes, s.spec.Graph.ActiveStages(), repl)
		if err != nil {
			panic(err)
		}
		cases = append(cases, faultCase{preset, sched})
	}
	return cases
}

func renderChaos(rows []faultRow) string {
	t := Table{
		Title: "Chaos sweep: MRD vs LRU/LRC under escalating fault schedules (seeded, reproducible)",
		Header: []string{"Workload", "Policy", "Preset", "Repl", "JCT", "Overhead",
			"Recompute", "ReplicaHits", "Retries", "GiveUps", "Reissues", "Stale"},
		Note: "Overhead is JCT vs the same policy's healthy run at the same replication factor.\n" +
			"MRD runs with a 1-stage table re-issue delay (graceful recency fallback, §4.4 made\n" +
			"non-instantaneous); replication 2 turns lineage recomputation into replica re-fetches.",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.workload, r.policy, r.label, itoa(r.repl),
			r.run.JCTDuration().String(), pct(r.overhead),
			human(r.run.RecomputeBytes), itoa(int(r.run.ReplicaHits)),
			itoa(int(r.run.FetchRetries)), itoa(int(r.run.FetchGiveUps)),
			itoa(r.stats.TableReissues), itoa(r.stats.StaleWindowStages),
		})
	}
	return t.Render()
}
