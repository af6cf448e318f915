// Command mrdbench is the repository's benchmark: six closed-loop
// workloads over the three paths that produce the paper's numbers — one
// advice call, one simulated run, one executed run — each reporting
// bounded end-to-end metrics, and, in a separate traced run, the
// per-layer metrics behind them. It drives the packages' exported APIs
// only, checks every output against an oracle, and prints the result as
// one JSON object on the last line of standard output.
//
//	bash benchmark/run.sh                       # every workload, end-to-end metrics
//	bash benchmark/run.sh --trace 1             # every workload, per-layer metrics
//	bash benchmark/run.sh --workload sim-mrd --seed 7 --seconds 10 --trace 0
//
// See README.md for the metric tables, --compare, --update-golden and
// the trajectory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"mrdspark/internal/experiments"
)

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	rounds   int
	traceOut string
	record   string
	golden   map[string]string // nil skips the pinned-digest leg
	setups   int               // set-ups an untraced run times; setup_s is their median
	effort   effort
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newWorkload(name string, seed int64, golden map[string]string) (bench, error) {
	switch name {
	case "advise-fresh":
		return newAdviseFresh(seed, golden), nil
	case "advise-replay":
		return newAdviseReplay(seed, golden), nil
	case "sim-mrd":
		return newSimWorkload(seed, experiments.SpecMRD, golden), nil
	case "sim-lru":
		return newSimWorkload(seed, experiments.SpecLRU, golden), nil
	case "exec-chain":
		return newExecWorkload(name, seed, "SCC", 32, golden), nil
	case "exec-reduce":
		return newExecWorkload(name, seed, "KM", 512, golden), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runWorkload performs one run of one workload and returns its result.
func runWorkload(o options) (result, error) {
	w, err := newWorkload(o.workload, o.seed, o.golden)
	if err != nil {
		return result{}, err
	}
	total := time.Duration(o.seconds * float64(time.Second))

	// Set-up is measured on every repetition and the last one stays up.
	// A traced run reports no setup_s and sets up once.
	reps := o.setups
	if o.trace != 0 {
		reps = 1
	}
	var setups []time.Duration
	for i := 0; i < reps; i++ {
		settle()
		start := time.Now()
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start))
		if i < reps-1 {
			w.close()
		}
	}
	defer w.close()

	// A round runs whole ops, so it may overrun its share of the time;
	// rounds stop when the run's time is up, however many were asked for.
	stop := time.Now().Add(total)
	res := result{Metrics: map[string]metricValue{}}
	count := func(r roundStats) {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	var m metricSet
	if o.trace == 0 {
		var rounds []roundStats
		for r := 0; r < o.rounds && (r == 0 || time.Now().Before(stop)); r++ {
			rs := measure(w, total/time.Duration(o.rounds), nil)
			count(rs)
			rounds = append(rounds, rs)
		}
		m = endToEnd(rounds, setups)
		for _, d := range theManifest.EndToEnd {
			res.Metrics[d.Name] = metricValue{m[d.Name], d.Unit}
		}
	} else {
		// Untraced and traced rounds alternate, so that the overhead of
		// tracing is read against the same minutes of the machine.
		slice := total / time.Duration(2*o.rounds)
		tr := newTracing(spanCapacity(slice))
		var plain, traced []roundStats
		for r := 0; r < o.rounds && (r == 0 || time.Now().Before(stop)); r++ {
			rs := measure(w, slice, nil)
			count(rs)
			plain = append(plain, rs)
			tr.beginRound()
			rs = measure(w, slice, tr)
			tr.endRound()
			count(rs)
			traced = append(traced, rs)
		}
		m = metricSet{}
		if err := runLayers(m, plain, traced); err != nil {
			return result{}, fmt.Errorf("%s: %w", o.workload, err)
		}
		if err := w.layers(m, tr, o.effort); err != nil {
			return result{}, fmt.Errorf("%s: layers: %w", o.workload, err)
		}
		if tr.escaped != 0 || tr.dropped != 0 {
			return result{}, fmt.Errorf("%s: %d spans do not lie inside their parent, %d fell off the ring of %d",
				o.workload, tr.escaped, tr.dropped, tr.capacity)
		}
		known := map[string]bool{}
		for _, d := range theManifest.PerLayer {
			known[d.Name] = true
			// A layer off this workload's path did no work: it reads 0.
			res.Metrics[d.Name] = metricValue{m[d.Name], d.Unit}
		}
		for name := range m {
			if !known[name] {
				return result{}, fmt.Errorf("%s: metric %s is not in the manifest", o.workload, name)
			}
		}
		if o.traceOut != "" {
			if err := tr.write(o.traceOut, o.workload); err != nil {
				return result{}, err
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// runLayers fills the per-layer metrics every workload has: what
// tracing cost, the tail of the untraced op latencies with its
// percentile and sample count, and the runtime's share.
func runLayers(m metricSet, plain, traced []roundStats) error {
	var p50Plain, p50Traced []float64
	var lat []int64
	var cpu time.Duration
	var gcCPU float64
	var gcCycles uint32
	for i := range plain {
		if plain[i].ops() == 0 || traced[i].ops() == 0 {
			return fmt.Errorf("a round completed no op (%d of %d failed)", plain[i].failed+traced[i].failed, plain[i].attempted+traced[i].attempted)
		}
		p50Plain = append(p50Plain, percentile(plain[i].lat, 50))
		p50Traced = append(p50Traced, percentile(traced[i].lat, 50))
		lat = append(lat, plain[i].lat...)
		cpu += plain[i].cpu
		gcCPU += plain[i].gcCPU
		gcCycles += plain[i].gcCycles
	}
	m["trace.overhead_frac"] = slices.Min(p50Traced)/slices.Min(p50Plain) - 1
	m["op.samples"] = float64(len(lat))
	if p := tailPercentile(len(lat)); p > 0 {
		m["op.tail_percentile"] = p
		m["op.tail_ms"] = percentile(lat, p) / 1e6
	}
	if cpu > 0 {
		m["runtime.gc_cpu_frac"] = gcCPU / cpu.Seconds()
	}
	m["runtime.gc_cycles_per_op"] = float64(gcCycles) / float64(len(lat))
	m["runtime.rss_peak_mb"] = peakRSSMB()
	return nil
}

// spanCapacity sizes the span ring of one traced round: the fastest
// workload, advise-replay, records a span per ~15 µs op on each of two
// clients, and a ring that overflows fails the run, so the ring holds
// 250 spans per millisecond of round on top of the default.
func spanCapacity(round time.Duration) int {
	return defaultSpanCap + 250*int(round.Milliseconds())
}

// report prints a run for people — one line per metric, in manifest
// order — and then the result object the driver reads.
func report(out io.Writer, o options, res result) error {
	fmt.Fprintf(out, "workload %s  seed %d  seconds %g  trace %d  rounds %d  nproc %d  GOMAXPROCS %d  %s\n",
		o.workload, o.seed, o.seconds, o.trace, o.rounds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var names []string
	if o.trace == 0 {
		for _, d := range theManifest.EndToEnd {
			names = append(names, d.Name)
		}
	} else {
		for _, d := range theManifest.PerLayer {
			names = append(names, d.Name)
		}
	}
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Fprintf(out, "  %-34s %16.6f %s\n", name, v.Value, v.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// recorded is one line of a --record file: a result with the settings
// that produced it, which is what --compare and the trajectory read.
type recorded struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Result   result  `json:"result"`
}

func appendRecord(path string, o options, res result) error {
	line, err := json.Marshal(recorded{o.workload, o.seed, o.seconds, o.trace, res})
	if err != nil {
		return err
	}
	return appendLine(path, line)
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mrdbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mrdbench", flag.ContinueOnError)
	o := options{setups: setupRuns, effort: fullEffort}
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fs.Int64Var(&o.seed, "seed", goldenSeed, "seed of every generated input (workload.Params.Seed)")
	fs.Float64Var(&o.seconds, "seconds", float64(theManifest.RunSeconds), "how long one run measures")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.IntVar(&o.rounds, "rounds", 0, "rounds one run's measuring time is split into; 0 means one per second")
	fs.StringVar(&o.traceOut, "trace-out", ".bench_build/trace", "directory the traced run's spans are written to at exit; empty writes none")
	fs.StringVar(&o.record, "record", "", "append each result, with its settings, to this JSONL file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	updateGolden := fs.String("update-golden", "", "recompute the seed-0 digests and write them to this file (benchmark/golden.json)")
	compare := fs.Bool("compare", false, "compare two --record files: mrdbench --compare parent.jsonl change.jsonl")
	trajectory := fs.String("trajectory", "", "append one line summarising a --record file to this trajectory: mrdbench --trajectory benchmark/trajectory.jsonl --commit SHA runs.jsonl")
	commit := fs.String("commit", "", "commit the --trajectory line describes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The sandbox has two cores; pin the scheduler to that so a larger
	// machine measures the same program.
	runtime.GOMAXPROCS(2)

	switch {
	case *printManifest:
		_, err := out.Write(theManifest.json())
		return err
	case *updateGolden != "":
		return writeGolden(*updateGolden)
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("--compare takes two --record files")
		}
		return compareFiles(out, fs.Arg(0), fs.Arg(1))
	case *trajectory != "":
		if fs.NArg() != 1 {
			return fmt.Errorf("--trajectory takes one --record file")
		}
		return appendTrajectory(*trajectory, *commit, fs.Arg(0))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds <= 0 || o.rounds < 0 {
		return fmt.Errorf("--seconds must be positive and --rounds not negative")
	}
	if o.rounds == 0 {
		o.rounds = max(1, int(o.seconds))
	}
	if o.seed == goldenSeed {
		golden, err := loadGolden(goldenJSON)
		if err != nil {
			return err
		}
		o.golden = golden
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range theManifest.Workloads {
			names = append(names, w.Name)
		}
	} else if !theManifest.workload(o.workload) {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	for _, name := range names {
		o.workload = name
		res, err := runWorkload(o)
		if err != nil {
			return err
		}
		if err := report(out, o, res); err != nil {
			return err
		}
		if o.record != "" {
			if err := appendRecord(o.record, o, res); err != nil {
				return err
			}
		}
	}
	return nil
}
