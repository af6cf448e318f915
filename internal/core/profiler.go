// Package core implements the paper's contribution: the Most Reference
// Distance (MRD) cache management policy (§4). It mirrors the paper's
// architecture: a centralized AppProfiler parses job DAGs into
// reference-distance profiles, a centralized MRDManager maintains the
// MRD_Table and issues purge and prefetch orders, and one CacheMonitor
// per worker node makes local eviction decisions from the table.
package core

import (
	"mrdspark/internal/dag"
	"mrdspark/internal/refdist"
)

// Mode selects how much of the application DAG is visible up front
// (paper §4.1's two modus operandi).
type Mode int

const (
	// AdHoc mode builds the reference-distance profile one job at a
	// time as jobs are submitted; references beyond the known jobs
	// are treated as infinite.
	AdHoc Mode = iota
	// Recurring mode knows the whole application DAG before execution
	// begins, so every reference is visible from the first stage.
	Recurring
)

// String names the mode.
func (m Mode) String() string {
	if m == AdHoc {
		return "ad-hoc"
	}
	return "recurring"
}

// Metric selects the workflow subdivision distances are measured in
// (paper §3.2 / §5.7).
type Metric int

const (
	// StageDistance is the fine-grained default metric.
	StageDistance Metric = iota
	// JobDistance is the coarse alternative; within one job every
	// reference looks equidistant, which §5.7 shows degrades MRD.
	JobDistance
)

// String names the metric.
func (m Metric) String() string {
	if m == StageDistance {
		return "stage"
	}
	return "job"
}

// AppProfiler receives job DAGs from the scheduler, parses them into a
// reference-distance profile (the parseDAG API of Table 2), and hands
// the profile to the MRDManager. For recurring applications the whole
// application DAG is known before the run, so the profile covers every
// job up front; for ad-hoc applications the profile grows job by job.
type AppProfiler struct {
	mode    Mode
	profile *refdist.Profile
}

// NewAppProfiler creates an ad-hoc profiler with no prior knowledge.
func NewAppProfiler() *AppProfiler {
	return &AppProfiler{mode: AdHoc, profile: refdist.NewProfile()}
}

// NewRecurringProfiler creates a profiler holding the whole-application
// profile, refdist.FromGraph of the application's DAG.
func NewRecurringProfiler(whole *refdist.Profile) *AppProfiler {
	return &AppProfiler{mode: Recurring, profile: whole}
}

// Mode returns the profiler's operating mode.
func (a *AppProfiler) Mode() Mode { return a.mode }

// Profile returns the profile the MRDManager should consult.
func (a *AppProfiler) Profile() *refdist.Profile { return a.profile }

// ParseDAG ingests one submitted job (Table 2's parseDAG). In ad-hoc
// mode the profile grows by the job; in recurring mode the profile
// already covers it.
func (a *AppProfiler) ParseDAG(j *dag.Job) {
	if a.mode == AdHoc {
		a.profile.AddJob(j)
	}
}
