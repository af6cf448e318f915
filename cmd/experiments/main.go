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
// in one process and writes one consolidated HTML report:
//
//	experiments -sweep                    # full grid, GOMAXPROCS workers
//	experiments -sweep -sweep-grid smoke  # reduced CI grid
package main

import (
	"fmt"
	"io"
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
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	grid, err := gridFor(*sweepGrid)
	if err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.Suite() {
			fmt.Fprintf(stdout, "%-20s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *sweep {
		return runSweep(stdout, grid, *sweepHTML)
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

// gridFor resolves the -sweep-grid flag.
func gridFor(name string) (experiments.SweepConfig, error) {
	switch name {
	case "full":
		return experiments.FullSweep(), nil
	case "smoke":
		return experiments.SmokeSweep(), nil
	default:
		return experiments.SweepConfig{}, cli.Usagef("unknown sweep grid %q (have full, smoke)", name)
	}
}

// runSweep executes the grid and reports the scrapeable cache summary
// on stdout.
func runSweep(stdout io.Writer, cfg experiments.SweepConfig, htmlOut string) error {
	start := time.Now()
	res, err := experiments.RunSweep(cfg, 0)
	if err != nil {
		return err
	}
	if err := cli.WriteTo(htmlOut, stdout, func(w io.Writer) error {
		_, err := w.Write(experiments.RenderSweepHTML(res))
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s elapsed=%v report=%s\n",
		res.Summary(), time.Since(start).Round(time.Millisecond), htmlOut)
	return nil
}
