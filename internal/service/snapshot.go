package service

import (
	"fmt"
	"hash/fnv"
	"sort"

	"mrdspark/internal/dag"
	"mrdspark/internal/obs"
	"mrdspark/internal/workload"
)

// SnapshotVersion is the wire version of the Snapshot format. Restore
// refuses snapshots from a different version rather than guessing.
const SnapshotVersion = 1

// OpKind discriminates the entries of an advisor's operation log.
type OpKind string

const (
	// OpSubmitJob is a successful SubmitJob(Arg).
	OpSubmitJob OpKind = "job"
	// OpAdvance is a successful Advance(Arg).
	OpAdvance OpKind = "stage"
	// OpNodeFail is a successful OnNodeFailure(Arg).
	OpNodeFail OpKind = "fail"
)

// Op is one logged session operation. The log is the snapshot's
// payload: replaying it against a fresh advisor over the same graph
// reconstructs the session byte for byte, because every operation is
// deterministic.
type Op struct {
	Kind OpKind `json:"k"`
	Arg  int    `json:"a"`
}

// Origin identifies the workload a session's graph was generated from.
// Generation is a pure function of (Workload, Params), so the origin
// is all a remote process needs to rebuild the graph for restore.
type Origin struct {
	Workload string          `json:"workload"`
	Params   workload.Params `json:"params"`
}

// Ledger is the snapshot's copy of the prefetch conservation counters
// (issued == used + wasted + pending), used to verify a restore
// reproduced the prefetch state exactly.
type Ledger struct {
	Issued  int64 `json:"issued"`
	Used    int64 `json:"used"`
	Wasted  int64 `json:"wasted"`
	Pending int64 `json:"pending"`
}

// Snapshot is the compact, versioned serialized form of an advisory
// session. It does not serialize policy or store state directly —
// both are deterministic functions of the op log — so the snapshot
// stays small (a few bytes per operation) no matter how much cache
// state the session models. The cursor fields (NextJob, LastStage,
// Advices) and the Residency/Ledger digests are verification data:
// RestoreAdvisor replays the ops and then proves the rebuilt session
// matches them before handing it out.
type Snapshot struct {
	Version   int    `json:"version"`
	SessionID string `json:"sessionId"`
	// Workload/Params are the origin (empty Workload when the advisor
	// was built over a caller-supplied graph; such snapshots can only
	// be restored by a caller that supplies the graph again).
	Workload string          `json:"workload,omitempty"`
	Params   workload.Params `json:"params"`
	Advisor  AdvisorConfig   `json:"advisor"`
	// GraphHash pins the DAG the ops were recorded against; restore
	// refuses a graph whose hash differs (e.g. generator drift between
	// binary versions).
	GraphHash string `json:"graphHash"`
	NextJob   int    `json:"nextJob"`
	LastStage int    `json:"lastStage"`
	// Advices is the decision-log cursor: how many advances the
	// session has served.
	Advices   int    `json:"advices"`
	Ops       []Op   `json:"ops"`
	Residency string `json:"residency"`
	Ledger    Ledger `json:"ledger"`
}

// Snapshot captures the session's current state under the caller's
// serialization (the server snapshots inside the per-session lock).
func (a *Advisor) Snapshot(sessionID string) *Snapshot {
	issued, used, wasted, pending := a.PrefetchLedger()
	s := &Snapshot{
		Version:   SnapshotVersion,
		SessionID: sessionID,
		Advisor:   a.cfg,
		GraphHash: GraphHash(a.graph),
		NextJob:   a.nextJob,
		LastStage: a.lastStage,
		Advices:   len(a.history),
		Ops:       append([]Op(nil), a.ops...),
		Residency: a.residencyDigest(),
		Ledger:    Ledger{Issued: issued, Used: used, Wasted: wasted, Pending: pending},
	}
	if a.origin != nil {
		s.Workload = a.origin.Workload
		s.Params = a.origin.Params
	}
	return s
}

// RestoreAdvisor rebuilds a session from its snapshot by replaying the
// operation log against a fresh advisor, then verifies the rebuilt
// session against the snapshot's cursors, residency digest and
// prefetch ledger — a restored session either is byte-identical to
// the one that was snapshotted or the restore fails loudly.
//
// g supplies the application graph; nil means rebuild it from the
// snapshot's origin via workload.Build (which requires the snapshot to
// carry one). bus, when non-nil, is attached before the replay so the
// restored session's event stream covers its whole history — exactly
// the stream a never-moved session would have emitted.
func RestoreAdvisor(snap *Snapshot, g *dag.Graph, bus *obs.Bus) (*Advisor, error) {
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("service: snapshot version %d, this build speaks %d", snap.Version, SnapshotVersion)
	}
	if g == nil {
		if snap.Workload == "" {
			return nil, fmt.Errorf("service: snapshot %q has no workload origin and no graph was supplied", snap.SessionID)
		}
		spec, err := workload.Build(snap.Workload, snap.Params)
		if err != nil {
			return nil, fmt.Errorf("service: rebuild workload for snapshot %q: %w", snap.SessionID, err)
		}
		g = spec.Graph
	}
	if h := GraphHash(g); h != snap.GraphHash {
		return nil, fmt.Errorf("service: snapshot %q graph hash %s != rebuilt graph hash %s", snap.SessionID, snap.GraphHash, h)
	}
	a, err := NewAdvisor(g, snap.Advisor)
	if err != nil {
		return nil, err
	}
	if snap.Workload != "" {
		a.SetOrigin(snap.Workload, snap.Params)
	}
	if bus != nil {
		a.AttachBus(bus)
	}
	for i, op := range snap.Ops {
		switch op.Kind {
		case OpSubmitJob:
			err = a.SubmitJob(op.Arg)
		case OpAdvance:
			_, err = a.Advance(op.Arg)
		case OpNodeFail:
			err = a.OnNodeFailure(op.Arg)
		default:
			err = fmt.Errorf("unknown op kind %q", op.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("service: snapshot %q replay op %d (%s %d): %w", snap.SessionID, i, op.Kind, op.Arg, err)
		}
	}
	return a, a.verifyAgainst(snap)
}

// verifyAgainst proves the advisor's rebuilt state matches the
// snapshot's recorded cursors and digests.
func (a *Advisor) verifyAgainst(snap *Snapshot) error {
	if a.nextJob != snap.NextJob || a.lastStage != snap.LastStage || len(a.history) != snap.Advices {
		return fmt.Errorf("service: snapshot %q cursor mismatch after replay: nextJob %d/%d lastStage %d/%d advices %d/%d",
			snap.SessionID, a.nextJob, snap.NextJob, a.lastStage, snap.LastStage, len(a.history), snap.Advices)
	}
	if got := a.residencyDigest(); got != snap.Residency {
		return fmt.Errorf("service: snapshot %q residency digest mismatch after replay: %s != %s", snap.SessionID, got, snap.Residency)
	}
	issued, used, wasted, pending := a.PrefetchLedger()
	if got := (Ledger{Issued: issued, Used: used, Wasted: wasted, Pending: pending}); got != snap.Ledger {
		return fmt.Errorf("service: snapshot %q prefetch ledger mismatch after replay: %+v != %+v", snap.SessionID, got, snap.Ledger)
	}
	return nil
}

// residencyDigest hashes the full modeled cluster cache state — every
// node's memory residency, disk contents, pending-prefetch set and
// free bytes — into one comparable token. Two advisors with equal
// digests hold identical store state.
func (a *Advisor) residencyDigest() string {
	h := fnv.New64a()
	for i, n := range a.nodes {
		mem := n.mem.Blocks()
		sort.Slice(mem, func(x, y int) bool { return mem[x].Less(mem[y]) })
		disk := n.disk.Blocks()
		sort.Slice(disk, func(x, y int) bool { return disk[x].Less(disk[y]) })
		fmt.Fprintf(h, "n%d free=%d mem=%v disk=%v pf=[", i, n.mem.Free(), mem, disk)
		var pf []string
		for _, id := range mem {
			if n.mem.Unread(id) {
				pf = append(pf, id.String())
			}
		}
		sort.Strings(pf)
		fmt.Fprintf(h, "%v];", pf)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// GraphHash hashes an application DAG's full structure — RDD costs,
// sizes, storage levels, dependencies, jobs and their executed stages
// — into a short stable token. Snapshots record it so restore can
// prove the rebuilt graph is the one the op log was recorded against.
func GraphHash(g *dag.Graph) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "rdds=%d jobs=%d;", len(g.RDDs), len(g.Jobs))
	for _, r := range g.RDDs {
		fmt.Fprintf(h, "r%d %s %s p%d sz%d c%d cached=%v l%d:", r.ID, r.Op, r.Name,
			r.NumPartitions, r.PartSize, r.CostPerPart, r.Cached, int(r.Level))
		for _, d := range r.Deps {
			fmt.Fprintf(h, "d%d t%d s%d,", d.Parent.ID, int(d.Type), d.ShuffleID)
		}
		fmt.Fprintf(h, ";")
	}
	for _, j := range g.Jobs {
		fmt.Fprintf(h, "j%d %s t%d:", j.ID, j.Name, j.Target.ID)
		for _, s := range j.NewStages {
			fmt.Fprintf(h, "s%d k%d tasks%d,", s.ID, int(s.Kind), s.NumTasks)
		}
		fmt.Fprintf(h, ";")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
