// Command mrdload replays benchmark workloads against a running
// mrdserver as N concurrent advisory sessions, measuring throughput and
// latency. With -parity every server decision is cross-checked
// byte-for-byte against an in-process advisor replaying the identical
// schedule — the subsystem's correctness oracle: if the server's advice
// ever diverges from the library, mrdload exits nonzero.
//
// With -kill-after N -kill-pid P mrdload SIGKILLs process P after the
// Nth successful advance — the chaos harness: point it at a server run
// with -snapshot-dir, restart that server on the same addresses, and
// every call retries until it answers again or -retry-wait runs out.
// The oracle never dies, so parity still proves every post-restart
// decision (served by a session restored from the snapshot directory)
// is byte-identical to an uninterrupted run.
//
// Usage:
//
//	mrdload -sessions 8 -workload scc -parity
//	mrdload -sessions 64 -workload all -parity
//	mrdload -addr http://127.0.0.1:7788 -workload hibench -policy LRU
//	mrdload -addr http://127.0.0.1:7788 -parity -kill-after 100 -kill-pid $SERVER_PID -retry-wait 10s
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mrdspark/internal/cli"
	"mrdspark/internal/cluster"
	"mrdspark/internal/fault"
	"mrdspark/internal/obs/trace"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/service"
	"mrdspark/internal/service/client"
	"mrdspark/internal/workload"
)

// groups maps the -workload presets to benchmark lists; any other
// value is taken as one literal workload name.
var groups = map[string][]string{
	"scc":     {"SCC"},
	"hibench": {"HB-Sort", "HB-WordCount", "HB-TeraSort", "HB-PageRank", "HB-Bayes", "HB-KMeans"},
	"mllib":   {"KM", "LinR", "LogR", "SVM", "DT", "MF"},
}

func init() {
	groups["all"] = append(append(append([]string{}, groups["scc"]...), groups["hibench"]...), groups["mllib"]...)
}

// killer SIGKILLs a victim process after the Nth successful advance —
// a deterministic chaos trigger (a wall-clock timer would race the
// load's progress and make CI flaky).
type killer struct {
	after          int64 // advance count that pulls the trigger; 0 disables
	pid            int
	stdout, stderr io.Writer
	count          atomic.Int64
}

// tick notes one successful advance; the one that makes the count due
// fires.
func (k *killer) tick() {
	if k.after <= 0 || k.pid <= 0 || k.count.Add(1) != k.after {
		return
	}
	proc, err := os.FindProcess(k.pid)
	if err == nil {
		err = proc.Kill()
	}
	if err != nil {
		fmt.Fprintf(k.stderr, "mrdload: kill pid %d: %v\n", k.pid, err)
		return
	}
	fmt.Fprintf(k.stdout, "mrdload: killed pid %d after %d advances\n", k.pid, k.after)
}

// hopNames are the tiers a response's X-Mrd-* headers can time, outermost
// first.
var hopNames = [...]string{"shard", "compute"}

// hopStats folds every successful call's per-hop breakdown (parsed
// from the X-Mrd-* response headers) into one latency sample set per
// hop plus a traced-response tally.
type hopStats struct {
	mu      sync.Mutex
	samples [len(hopNames)][]time.Duration
	traced  int
	total   int
}

func (h *hopStats) add(hp client.Hops) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.total++
	if hp.TraceID != "" {
		h.traced++
	}
	for i, us := range [...]int64{hp.ShardUs, hp.ComputeUs} {
		if us >= 0 {
			h.samples[i] = append(h.samples[i], time.Duration(us)*time.Microsecond)
		}
	}
}

// report prints the per-hop breakdown next to the end-to-end latency
// percentiles; hops a tier never stamped are omitted.
func (h *hopStats) report(stdout io.Writer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return
	}
	fmt.Fprintf(stdout, "per-hop:       %d/%d responses traced\n", h.traced, h.total)
	for i, d := range h.samples {
		if len(d) > 0 {
			fmt.Fprintf(stdout, "  %-8s p50 %v  p99 %v  (%d samples)\n", hopNames[i], percentile(d, 50), percentile(d, 99), len(d))
		}
	}
}

// sessionResult is one worker's tally.
type sessionResult struct {
	workload   string
	advances   int
	checked    int
	mismatches []string
	latencies  []time.Duration
	err        error
}

func main() { cli.Main("mrdload", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.Flags("mrdload", stderr)
	addr := fs.String("addr", "http://127.0.0.1:7788", "mrdserver base URL")
	sessions := fs.Int("sessions", 8, "concurrent sessions to run")
	group := fs.String("workload", "scc", "workload group (scc, hibench, mllib, all) or one workload name")
	parity := fs.Bool("parity", false, "cross-check every server decision against an in-process advisor")
	nodes := fs.Int("nodes", 4, "modeled worker nodes per session")
	cache := fs.Int64("cache", 128, "modeled per-node cache in MB")
	policyKind := fs.String("policy", "MRD", "cache policy kind for every session")
	killAfter := fs.Int64("kill-after", 0, "SIGKILL -kill-pid after this many successful advances (chaos mode; 0 disables)")
	killPid := fs.Int("kill-pid", 0, "process to SIGKILL in chaos mode")
	bin := fs.Bool("bin", false, "drive the binary frame protocol instead of JSON (server needs -frame-addr)")
	batch := fs.Bool("batch", false, "submit each job's steps as one batch call instead of per-step requests")
	retryWait := fs.Duration("retry-wait", 3*time.Second, "per-call retry wall-time cap; a failing call retries until it runs out")
	traceCap := fs.Int("trace-capacity", 4*trace.DefaultCapacity, "client span ring capacity; 0 disables client-side tracing")
	traceOut := fs.String("trace-out", "", "write the client span export (JSONL) here at exit")
	traceChrome := fs.String("trace-chrome", "", "write the Chrome trace_event export here at exit")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	names, ok := groups[strings.ToLower(*group)]
	if !ok {
		names = []string{*group}
	}
	advCfg := service.AdvisorConfig{
		Nodes:      *nodes,
		CacheBytes: *cache * cluster.MB,
		Policy:     policyspec.Spec{Kind: *policyKind},
	}

	var tracer *trace.Tracer
	if *traceCap > 0 {
		tracer = trace.NewTracer(*traceCap)
	}
	hops := &hopStats{}

	transport := "json"
	if *bin {
		transport = "bin"
	}
	// Sixteen doublings of the 1 ms backoff base outlast any sane
	// -retry-wait, so the wall-time cap, not the count, ends a call's
	// retries: a call rides out a server restart of up to that long.
	c := client.New(client.Config{
		BaseURL: *addr, MaxRetryWait: *retryWait, Retry: &fault.Schedule{MaxFetchRetries: 16},
		Tracer: tracer, OnHops: hops.add, Binary: *bin,
	})
	defer c.Close()
	fmt.Fprintf(stdout, "mrdload: %d sessions x %s (%d workloads) against %s (%s), policy %s, parity %v\n",
		*sessions, *group, len(names), *addr, transport, *policyKind, *parity)
	chaos := &killer{after: *killAfter, pid: *killPid, stdout: stdout, stderr: stderr}

	start := time.Now()
	results := make([]sessionResult, *sessions)
	var wg sync.WaitGroup
	for i := 0; i < *sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds mean each session is "the same workflow over
			// new data" — the paper's recurring-application model.
			params := workload.Params{Seed: int64(i + 1)}
			// Client-chosen IDs let every call, a create retried across
			// a restart included, name its session before it exists.
			res := &results[i]
			res.workload = names[i%len(names)]
			res.err = runSession(res, c, fmt.Sprintf("load-%d", i+1), params, advCfg, *parity, *batch, chaos)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var advances, checked, failed int
	var mismatches []string
	var latencies []time.Duration
	for _, r := range results {
		advances += r.advances
		checked += r.checked
		latencies = append(latencies, r.latencies...)
		mismatches = append(mismatches, r.mismatches...)
		if r.err != nil {
			failed++
			fmt.Fprintf(stderr, "mrdload: session %s failed: %v\n", r.workload, r.err)
		}
	}

	okSessions := *sessions - failed
	fmt.Fprintf(stdout, "sessions:      %d ok, %d failed (%.1f sessions/s)\n",
		okSessions, failed, float64(okSessions)/elapsed.Seconds())
	fmt.Fprintf(stdout, "advice calls:  %d (%.1f calls/s)\n", advances, float64(advances)/elapsed.Seconds())
	fmt.Fprintf(stdout, "latency:       p50 %v  p99 %v\n", percentile(latencies, 50), percentile(latencies, 99))
	hops.report(stdout)
	if *parity {
		fmt.Fprintf(stdout, "parity:        %d advice checked, %d mismatches\n", checked, len(mismatches))
		for i, m := range mismatches {
			if i == 5 {
				fmt.Fprintf(stderr, "mrdload: ... %d more mismatches\n", len(mismatches)-5)
				break
			}
			fmt.Fprintf(stderr, "mrdload: MISMATCH %s\n", m)
		}
	}
	// A nil tracer writes empty-but-valid files so scripted runs can rely
	// on the artifact existing.
	summary, err := cli.ExportTraces(tracer, stdout, *traceOut, *traceChrome)
	if err != nil {
		fmt.Fprintf(stderr, "mrdload: trace export: %v\n", err)
	}
	if summary != "" {
		fmt.Fprintf(stdout, "traces:        %s\n", summary)
	}
	if failed > 0 || len(mismatches) > 0 {
		return fmt.Errorf("%d sessions failed, %d mismatches", failed, len(mismatches))
	}
	return nil
}

// runSession creates one server session, replays the workload's
// canonical schedule through the advisory API one job at a time, and
// under -parity compares the advice sequence, fingerprint by
// fingerprint, against an in-process oracle's replay of the same
// schedule.
func runSession(res *sessionResult, c *client.Client, id string, params workload.Params, cfg service.AdvisorConfig, parity, batch bool, chaos *killer) error {
	ctx := context.Background()
	spec, err := workload.Build(res.workload, params)
	if err != nil {
		return err
	}
	created, err := c.CreateSession(ctx, service.CreateSessionRequest{ID: id, Workload: res.workload, Params: params, Advisor: cfg})
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	defer c.DeleteSession(ctx, created.ID)

	var got []service.Advice
	sched := service.Schedule(spec.Graph)
	for start := 0; start < len(sched); {
		// One job: its submit step, then every stage it creates.
		end := start + 1
		for end < len(sched) && sched[end].Stage >= 0 {
			end++
		}
		advices, err := advise(ctx, c, created.ID, sched[start:end], batch, res, chaos)
		if err != nil {
			return err
		}
		if parity {
			got = append(got, advices...)
		}
		start = end
	}
	if !parity {
		return nil
	}

	// The oracle gets its own DAG instance: nothing is shared with the
	// request path, so agreement can only come from determinism — which
	// is also why it can replay on its own instead of in lockstep.
	ospec, err := workload.Build(res.workload, params)
	if err != nil {
		return err
	}
	oracle, err := service.NewAdvisor(ospec.Graph, cfg)
	if err != nil {
		return err
	}
	want, err := service.Replay(oracle)
	if err != nil {
		return err
	}
	for i, w := range want {
		server, oracle := "(missing advice)", w.Fingerprint()
		if i < len(got) {
			server = got[i].Fingerprint()
			res.checked++
		}
		if server != oracle {
			res.mismatches = append(res.mismatches,
				fmt.Sprintf("%s seed=%d stage=%d\n  server: %s\n  oracle: %s", res.workload, params.Seed, w.Stage, server, oracle))
		}
	}
	if len(got) > len(want) {
		res.mismatches = append(res.mismatches,
			fmt.Sprintf("%s seed=%d: %d advices for %d stage steps", res.workload, params.Seed, len(got), len(want)))
	}
	return nil
}

// advise fetches one job's advices, by one RunBatch call or step by
// step. Each advisory call is timed; each advice counts as an advance
// and ticks the chaos trigger.
func advise(ctx context.Context, c *client.Client, id string, steps []service.Step, batch bool, res *sessionResult, chaos *killer) ([]service.Advice, error) {
	if batch {
		t0 := time.Now()
		resp, err := c.RunBatch(ctx, id, steps)
		res.latencies = append(res.latencies, time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("batch of job %d: %w", steps[0].Job, err)
		}
		res.advances += len(resp.Advices)
		for range resp.Advices {
			chaos.tick()
		}
		return resp.Advices, nil
	}
	var got []service.Advice
	for _, st := range steps {
		if st.Stage < 0 {
			if _, err := c.SubmitJob(ctx, id, st.Job); err != nil {
				return nil, fmt.Errorf("job %d: %w", st.Job, err)
			}
			continue
		}
		t0 := time.Now()
		adv, err := c.Advance(ctx, id, st.Stage)
		res.latencies = append(res.latencies, time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("stage %d: %w", st.Stage, err)
		}
		res.advances++
		chaos.tick()
		got = append(got, adv)
	}
	return got, nil
}

// percentile returns the p-th percentile latency (nearest-rank).
func percentile(d []time.Duration, p int) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	ix := (len(s)*p + 99) / 100
	if ix > 0 {
		ix--
	}
	return s[ix]
}
