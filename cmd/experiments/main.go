// Command experiments regenerates every table and figure of the
// paper's evaluation (plus the ablations DESIGN.md adds) and prints
// them as aligned text tables.
//
// Usage:
//
//	experiments                # run the full suite
//	experiments -list          # list experiment IDs
//	experiments -only fig4,fig7
//	experiments -out results.txt
//
// Sweep mode runs the full policy x workload x cluster x chaos grid
// through the sharded experiment fabric and writes one consolidated
// HTML report:
//
//	experiments -sweep                          # full grid, GOMAXPROCS workers
//	experiments -sweep -sweep-grid smoke        # reduced CI grid
//	experiments -sweep -cache-dir .sweep-cache  # persistent cross-process run cache
//	experiments -sweep -sweep-shard 0/2 -sweep-shard-out s0.json
//	experiments -sweep -sweep-shard 1/2 -sweep-shard-out s1.json
//	experiments -sweep-merge s0.json,s1.json    # merge once, render the report
package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"mrdspark/internal/cli"
	"mrdspark/internal/experiments"
)

func main() { cli.Main("experiments", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.Flags("experiments", stderr)
	list := fs.Bool("list", false, "list experiment IDs and exit")
	only := fs.String("only", "", "comma-separated experiment IDs to run (default: all)")
	out := fs.String("out", "", "write results to this file as well as stdout")

	sweep := fs.Bool("sweep", false, "run the sweep grid instead of the paper suite")
	sweepGrid := fs.String("sweep-grid", "full", "sweep grid: full or smoke")
	sweepHTML := fs.String("sweep-html", "sweep.html", "write the consolidated sweep report here")
	sweepWorkers := fs.Int("sweep-workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	cacheDir := fs.String("cache-dir", "", "persist the run cache in this directory (cross-process warm starts)")
	sweepShard := fs.String("sweep-shard", "", "compute only shard i/n of the grid (e.g. 0/2)")
	sweepShardOut := fs.String("sweep-shard-out", "", "write the computed shard here (required with -sweep-shard)")
	sweepMerge := fs.String("sweep-merge", "", "comma-separated shard files to merge into the report")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.Suite() {
			fmt.Fprintf(stdout, "%-20s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *sweepMerge != "" {
		return runMerge(stdout, cli.SplitList(*sweepMerge), *sweepHTML)
	}

	// Suite and sweep ask their runs of the same cache; -cache-dir makes
	// it persistent for either.
	if *cacheDir != "" {
		store, err := experiments.OpenCacheStore(*cacheDir)
		if err != nil {
			return err
		}
		defer store.Close()
		loaded, skipped, rebuilt := store.LoadReport()
		fmt.Fprintf(stdout, "cache: dir=%s entries=%d skipped=%d rebuilt=%v\n",
			*cacheDir, loaded, skipped, rebuilt)
		experiments.SetCacheStore(store)
		defer experiments.SetCacheStore(nil)
	}
	if *sweep {
		return runSweep(stdout, *sweepGrid, *sweepHTML, *sweepWorkers, *sweepShard, *sweepShardOut)
	}

	sel := map[string]bool{}
	if *only != "" {
		known := map[string]bool{}
		for _, e := range experiments.Suite() {
			known[e.ID] = true
		}
		for _, id := range cli.SplitList(*only) {
			if !known[id] {
				return cli.Usagef("unknown id %q (use -list)", id)
			}
			sel[id] = true
		}
	}
	if *out == "" || *out == "-" { // "-" is stdout, which gets the results anyway
		return experiments.RunSuite(stdout, sel)
	}
	return cli.WriteTo(*out, stdout, func(f io.Writer) error {
		return experiments.RunSuite(io.MultiWriter(stdout, f), sel)
	})
}

// parseShard reads -sweep-shard's "i/n": two plain decimal numbers with
// 0 <= i < n and nothing else — a mistyped split must not silently
// compute some other shard's rows.
func parseShard(spec string) (shard, of int, err error) {
	i, n, ok := strings.Cut(spec, "/")
	if ok {
		if shard, err = strconv.Atoi(i); err == nil {
			of, err = strconv.Atoi(n)
		}
	}
	if !ok || err != nil || strconv.Itoa(shard) != i || strconv.Itoa(of) != n || shard < 0 || shard >= of {
		return 0, 0, cli.Usagef("bad -sweep-shard %q (want i/n with 0 <= i < n)", spec)
	}
	return shard, of, nil
}

// gridFor resolves the -sweep-grid flag.
func gridFor(name string) (experiments.SweepConfig, error) {
	switch name {
	case "full":
		return experiments.FullSweep(), nil
	case "smoke":
		return experiments.SmokeSweep(), nil
	default:
		return experiments.SweepConfig{}, fmt.Errorf("unknown sweep grid %q (have full, smoke)", name)
	}
}

// runSweep executes the grid (whole, or one shard of a multi-process
// split) and reports the scrapeable cache summary on stdout.
func runSweep(stdout io.Writer, gridName, htmlOut string, workers int, shardSpec, shardOut string) error {
	cfg, err := gridFor(gridName)
	if err != nil {
		return err
	}
	start := time.Now()
	if shardSpec != "" {
		shard, of, err := parseShard(shardSpec)
		if err != nil {
			return err
		}
		if shardOut == "" {
			return fmt.Errorf("-sweep-shard requires -sweep-shard-out")
		}
		sf, err := experiments.RunSweepShard(cfg, shard, of, workers)
		if err != nil {
			return err
		}
		if err := sf.WriteFile(shardOut); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "sweep: shard=%d/%d rows=%d grid=%d %s elapsed=%v\n",
			shard, of, len(sf.Rows), sf.GridLen, sf.Stats, time.Since(start).Round(time.Millisecond))
		return nil
	}
	res, err := experiments.RunSweep(cfg, workers)
	if err != nil {
		return err
	}
	if err := writeSweepHTML(htmlOut, stdout, res); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s elapsed=%v report=%s\n",
		res.Summary(), time.Since(start).Round(time.Millisecond), htmlOut)
	return nil
}

// runMerge merges shard files exactly once and renders the report.
func runMerge(stdout io.Writer, paths []string, htmlOut string) error {
	files := make([]*experiments.ShardFile, 0, len(paths))
	for _, p := range paths {
		sf, err := experiments.ReadShardFile(p)
		if err != nil {
			return err
		}
		files = append(files, sf)
	}
	res, err := experiments.MergeShards(files)
	if err != nil {
		return err
	}
	if err := writeSweepHTML(htmlOut, stdout, res); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s merged=%d report=%s\n", res.Summary(), len(files), htmlOut)
	return nil
}

// writeSweepHTML renders the consolidated report into the -sweep-html
// path.
func writeSweepHTML(path string, stdout io.Writer, res *experiments.SweepResult) error {
	return cli.WriteTo(path, stdout, func(w io.Writer) error {
		_, err := w.Write(experiments.RenderSweepHTML(res))
		return err
	})
}
