// Command profiles manages the store of recurring-application
// reference-distance profiles (paper §4.1): a first run profiles the
// application ad-hoc and saves the observed schedule; later runs load
// it and start with the whole DAG visible.
//
// Usage:
//
//	profiles -dir ./profiles list
//	profiles -dir ./profiles record -workload KM          # run ad-hoc, save profile
//	profiles -dir ./profiles show -workload KM
//	profiles -dir ./profiles compare -workload KM -cache 180M
//	profiles -dir ./profiles delete -workload KM
package main

import (
	"errors"
	"fmt"
	"io"

	"mrdspark"
	"mrdspark/internal/cli"
	"mrdspark/internal/core"
	"mrdspark/internal/profile"
	"mrdspark/internal/refdist"
	"mrdspark/internal/sim"
)

func main() { cli.Main("profiles", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.Flags("profiles", stderr)
	dir := fs.String("dir", "./profiles", "profile store directory")
	wl := fs.String("workload", "", "workload name (record/show/compare/delete)")
	cacheMB := fs.Int64("cache", 180, "per-node cache in MB for record/compare runs")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	// Flags may follow the command too, as the usage above writes them.
	cmd := fs.Arg(0)
	if fs.NArg() > 1 {
		if err := cli.Parse(fs, fs.Args()[1:]); err != nil {
			return err
		}
	}

	store, err := profile.NewStore(*dir)
	if err != nil {
		return err
	}
	switch cmd {
	case "list", "":
		apps, err := store.Apps()
		if err != nil {
			return err
		}
		if len(apps) == 0 {
			fmt.Fprintln(stdout, "no stored profiles")
			return nil
		}
		for _, app := range apps {
			e, _, err := store.Load(app)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-12s runs=%d complete=%v discrepancies=%d cachedRDDs=%d\n",
				e.App, e.Runs, e.Complete, e.Discrepancies, len(e.Profile.Creation))
		}
	case "record":
		adhoc, prof, err := runOnce(*wl, *cacheMB, nil)
		if err != nil {
			return err
		}
		entry, err := store.Save(*wl, prof.Observed(), true, prof.Discrepancies())
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "recorded %s: JCT %v, hit %.1f%% (ad-hoc run %d)\n",
			*wl, adhoc.JCTDuration(), 100*adhoc.HitRatio(), entry.Runs)
	case "show":
		p, err := loadComplete(store, *wl)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, p)
		for _, id := range p.RDDs() {
			c, _ := p.Creation(id)
			fmt.Fprintf(stdout, "  RDD%-4d created stage %-4d reads at stages %v\n", id, c.Stage, stagesOf(p, id))
		}
	case "compare":
		adhoc, _, err := runOnce(*wl, *cacheMB, nil)
		if err != nil {
			return err
		}
		stored, err := loadComplete(store, *wl)
		if err != nil {
			return err
		}
		rec, _, err := runOnce(*wl, *cacheMB, stored)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s at %dM cache/node:\n", *wl, *cacheMB)
		fmt.Fprintf(stdout, "  ad-hoc:    JCT %-12v hit %.1f%%\n", adhoc.JCTDuration(), 100*adhoc.HitRatio())
		fmt.Fprintf(stdout, "  recurring: JCT %-12v hit %.1f%%  (%.0f%% of ad-hoc)\n",
			rec.JCTDuration(), 100*rec.HitRatio(), 100*float64(rec.JCT)/float64(adhoc.JCT))
	case "delete":
		if err := store.Delete(*wl); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "deleted", *wl)
	default:
		return fmt.Errorf("unknown command %q (list, record, show, compare, delete)", cmd)
	}
	return nil
}

// loadComplete loads the workload's stored profile, which must exist
// and be complete.
func loadComplete(store *profile.Store, wl string) (*refdist.Profile, error) {
	p, ok, err := store.LoadProfile(wl)
	if err == nil && !ok {
		err = fmt.Errorf("no complete profile for %q (use record)", wl)
	}
	return p, err
}

// runOnce simulates the workload with MRD: ad-hoc when stored is nil,
// recurring otherwise. It returns the run and the profiler used.
func runOnce(name string, cacheMB int64, stored *refdist.Profile) (mrdspark.Result, *core.AppProfiler, error) {
	if name == "" {
		return mrdspark.Result{}, nil, errors.New("-workload required")
	}
	spec, err := mrdspark.BuildWorkload(name, mrdspark.WorkloadParams{})
	if err != nil {
		return mrdspark.Result{}, nil, err
	}
	var prof *core.AppProfiler
	if stored == nil {
		prof = core.NewAppProfiler()
	} else {
		prof = core.NewRecurringProfiler(stored)
	}
	mgr := core.NewManager(spec.Graph, prof, core.Options{})
	cl := mrdspark.MainCluster().WithCache(cacheMB << 20)
	run, err := sim.Run(spec.Graph, cl, mgr, spec.Name)
	return run, prof, err
}

func stagesOf(p *refdist.Profile, id int) []int {
	var out []int
	for _, r := range p.Reads(id) {
		out = append(out, r.Stage)
	}
	return out
}
