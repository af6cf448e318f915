package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
)

// readRecords loads a --record file and groups the values of every
// metric by workload; end-to-end and per-layer names do not overlap, so
// a file may hold runs of both kinds.
func readRecords(path string) (map[string]map[string][]float64, []recorded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	values := map[string]map[string][]float64{}
	var all []recorded
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r recorded
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		all = append(all, r)
		byMetric := values[r.Workload]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			values[r.Workload] = byMetric
		}
		for name, v := range r.Result.Metrics {
			byMetric[name] = append(byMetric[name], v.Value)
		}
		byMetric["failed_ops"] = append(byMetric["failed_ops"], float64(r.Result.Failed))
	}
	return values, all, sc.Err()
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / med)
}

// verdict compares the change's values of one bounded metric with the
// parent's. A metric whose run-to-run spread is wider than its bound
// cannot be called unchanged: it is unresolved, unless every run of the
// change reads better than every run of the parent.
func verdict(d endToEndDef, parent, change []float64) (v string, worse, noise float64) {
	noise = max(spread(parent), spread(change))
	pm, cm := median(parent), median(change)
	if pm == 0 {
		return "unresolved", 0, noise
	}
	worse = (cm - pm) / pm
	if d.Better == higher {
		worse = -worse
	}
	sort.Float64s(parent)
	sort.Float64s(change)
	allBetter := change[len(change)-1] < parent[0]
	if d.Better == higher {
		allBetter = change[0] > parent[len(parent)-1]
	}
	switch {
	case allBetter && -worse > noise:
		v = "improved"
	case noise > d.Bound:
		v = "unresolved"
	case worse > d.Bound:
		v = "regressed"
	case -worse > noise && -worse > d.Bound:
		v = "improved"
	default:
		v = "unchanged"
	}
	return v, worse, noise
}

// compareFiles prints one row per end-to-end metric and workload.
func compareFiles(out io.Writer, parentPath, changePath string) error {
	parent, _, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, _, err := readRecords(changePath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent\tchange\tworse by\tbound\tspread\tverdict")
	counts := map[string]int{}
	for _, w := range theManifest.Workloads {
		for _, d := range theManifest.EndToEnd {
			p, c := parent[w.Name][d.Name], change[w.Name][d.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v, worse, noise := verdict(d, p, c)
			counts[v]++
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%.2f%%\t%s\n",
				w.Name, d.Name, median(p), median(c), 100*worse, 100*d.Bound, 100*noise, v)
		}
		// A gain does not count when more operations fail.
		if p, c := parent[w.Name]["failed_ops"], change[w.Name]["failed_ops"]; len(p) > 0 && len(c) > 0 {
			v := "unchanged"
			if median(c) > median(p) {
				v = "regressed"
			}
			counts[v]++
			fmt.Fprintf(tw, "%s\tfailed_ops\t%.6g\t%.6g\t\t0\t\t%s\n", w.Name, median(p), median(c), v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "improved %d  unchanged %d  regressed %d  unresolved %d\n",
		counts["improved"], counts["unchanged"], counts["regressed"], counts["unresolved"])
	return err
}

// trajectoryLine is one recorded run set: where it was measured and the
// median of every end-to-end metric on every workload.
type trajectoryLine struct {
	Commit     string                        `json:"commit"`
	Go         string                        `json:"go"`
	NProc      int                           `json:"nproc"`
	GoMaxProcs int                           `json:"gomaxprocs"`
	Seconds    float64                       `json:"seconds"`
	Seeds      []int64                       `json:"seeds"`
	Runs       int                           `json:"runs"`
	Medians    map[string]map[string]float64 `json:"medians"`
}

// appendTrajectory summarises a --record file as one line at the end of
// the trajectory, which is appended to and never rewritten.
func appendTrajectory(path, commit, recordPath string) error {
	if commit == "" {
		return fmt.Errorf("--trajectory needs --commit")
	}
	values, all, err := readRecords(recordPath)
	if err != nil {
		return err
	}
	line := trajectoryLine{
		Commit: commit, Go: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Medians: map[string]map[string]float64{},
	}
	seeds := map[int64]bool{}
	for _, r := range all {
		if r.Trace != 0 {
			continue
		}
		line.Runs++
		line.Seconds = r.Seconds
		if !seeds[r.Seed] {
			seeds[r.Seed] = true
			line.Seeds = append(line.Seeds, r.Seed)
		}
	}
	if line.Runs == 0 {
		return fmt.Errorf("%s holds no untraced run", recordPath)
	}
	sort.Slice(line.Seeds, func(i, j int) bool { return line.Seeds[i] < line.Seeds[j] })
	for _, w := range theManifest.Workloads {
		for _, d := range theManifest.EndToEnd {
			if v := values[w.Name][d.Name]; len(v) > 0 {
				if line.Medians[w.Name] == nil {
					line.Medians[w.Name] = map[string]float64{}
				}
				line.Medians[w.Name][d.Name] = median(v)
			}
		}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	return appendLine(path, raw)
}

// writeGolden sets every workload up at the golden seed, with the pinned
// leg off, and writes the digests they produce.
func writeGolden(path string) error {
	golden := map[string]string{}
	for _, def := range theManifest.Workloads {
		w, err := newWorkload(def.Name, goldenSeed, nil)
		if err != nil {
			return err
		}
		if err := w.setup(); err != nil {
			return fmt.Errorf("%s: %w", def.Name, err)
		}
		if d, ok := w.(interface{ digests() map[string]string }); ok {
			for k, v := range d.digests() {
				golden[k] = v
			}
		}
		w.close()
	}
	raw, err := json.MarshalIndent(golden, "", "  ") // encoding/json writes map keys in order
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
