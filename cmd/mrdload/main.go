// Command mrdload replays benchmark workloads against a running
// mrdserver as N concurrent advisory sessions, measuring throughput and
// latency. With -parity every server decision is cross-checked
// byte-for-byte against an in-process advisor replaying the identical
// schedule — the subsystem's correctness oracle: if the server's advice
// ever diverges from the library, mrdload exits nonzero.
//
// With -shards it drives a shard group through the consistent-hash
// failover client instead of one server, and with -kill-after N /
// -kill-pid P it SIGKILLs process P after the Nth successful advance —
// the chaos harness: the oracle never dies, so parity still proves
// every post-failover decision (served by a snapshot-restored session
// on the surviving shard) is byte-identical to an uninterrupted run.
//
// Usage:
//
//	mrdload -sessions 8 -workload scc -parity
//	mrdload -sessions 64 -workload all -parity
//	mrdload -addr http://127.0.0.1:7788 -workload hibench -policy LRU
//	mrdload -shards http://127.0.0.1:7701,http://127.0.0.1:7702,http://127.0.0.1:7703 \
//	    -parity -kill-after 100 -kill-pid $SHARD2_PID
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mrdspark/internal/cli"
	"mrdspark/internal/cluster"
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

// api is the slice of the advisory API both the single-server client
// and the sharded failover client provide; the load loop is identical
// over either.
type api interface {
	CreateSession(ctx context.Context, req service.CreateSessionRequest) (service.CreateSessionResponse, error)
	SubmitJob(ctx context.Context, sessionID string, job int) (service.SubmitJobResponse, error)
	Advance(ctx context.Context, sessionID string, stage int) (service.Advice, error)
	RunBatch(ctx context.Context, sessionID string, steps []service.Step) (service.BatchResponse, error)
	DeleteSession(ctx context.Context, sessionID string) error
	Close()
}

// killer SIGKILLs a victim process after the Nth successful advance —
// a deterministic chaos trigger (a wall-clock timer would race the
// load's progress and make CI flaky).
type killer struct {
	after int64 // advance count that pulls the trigger; 0 disables
	pid   int
	count atomic.Int64
	once  sync.Once
	fired atomic.Bool
}

// tick notes one successful advance and fires when the count is due.
func (k *killer) tick() {
	if k.after <= 0 || k.pid <= 0 {
		return
	}
	if k.count.Add(1) < k.after {
		return
	}
	k.once.Do(func() {
		proc, err := os.FindProcess(k.pid)
		if err == nil {
			err = proc.Kill()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrdload: kill pid %d: %v\n", k.pid, err)
			return
		}
		k.fired.Store(true)
		fmt.Printf("mrdload: killed pid %d after %d advances\n", k.pid, k.after)
	})
}

// hopStats folds every successful call's per-hop breakdown (parsed
// from the X-Mrd-* response headers) into router/shard/compute latency
// samples plus a traced-response tally.
type hopStats struct {
	mu      sync.Mutex
	router  []time.Duration
	shard   []time.Duration
	compute []time.Duration
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
	if hp.RouterUs >= 0 {
		h.router = append(h.router, time.Duration(hp.RouterUs)*time.Microsecond)
	}
	if hp.ShardUs >= 0 {
		h.shard = append(h.shard, time.Duration(hp.ShardUs)*time.Microsecond)
	}
	if hp.ComputeUs >= 0 {
		h.compute = append(h.compute, time.Duration(hp.ComputeUs)*time.Microsecond)
	}
}

// report prints the per-hop breakdown next to the end-to-end latency
// percentiles; hops a tier never stamped (e.g. router with -addr) are
// omitted.
func (h *hopStats) report() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return
	}
	line := func(name string, d []time.Duration) {
		if len(d) == 0 {
			return
		}
		fmt.Printf("  %-8s p50 %v  p99 %v  (%d samples)\n", name, percentile(d, 50), percentile(d, 99), len(d))
	}
	fmt.Printf("per-hop:       %d/%d responses traced\n", h.traced, h.total)
	line("router", h.router)
	line("shard", h.shard)
	line("compute", h.compute)
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

func main() {
	addr := flag.String("addr", "http://127.0.0.1:7788", "mrdserver base URL")
	shards := flag.String("shards", "", "comma-separated shard base URLs; non-empty switches to the consistent-hash failover client (overrides -addr)")
	sessions := flag.Int("sessions", 8, "concurrent sessions to run")
	group := flag.String("workload", "scc", "workload group (scc, hibench, mllib, all) or one workload name")
	parity := flag.Bool("parity", false, "cross-check every server decision against an in-process advisor")
	nodes := flag.Int("nodes", 4, "modeled worker nodes per session")
	cache := flag.Int64("cache", 128, "modeled per-node cache in MB")
	policyKind := flag.String("policy", "MRD", "cache policy kind for every session")
	killAfter := flag.Int64("kill-after", 0, "SIGKILL -kill-pid after this many successful advances (chaos mode; 0 disables)")
	killPid := flag.Int("kill-pid", 0, "process to SIGKILL in chaos mode")
	bin := flag.Bool("bin", false, "drive the binary frame protocol instead of JSON (server needs -frame-addr)")
	batch := flag.Bool("batch", false, "submit each job's steps as one batch call instead of per-step requests")
	retryWait := flag.Duration("retry-wait", 3*time.Second, "per-call retry wall-time cap (also the shard-failover detection latency)")
	traceCap := flag.Int("trace-capacity", 4*trace.DefaultCapacity, "client span ring capacity; 0 disables client-side tracing")
	traceOut := flag.String("trace-out", "", "write the client span export (JSONL) here at exit")
	traceChrome := flag.String("trace-chrome", "", "write the Chrome trace_event export here at exit")
	flag.Parse()

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
	shardList := cli.SplitList(*shards)
	var c api
	var sharded *client.Sharded
	target := *addr
	if len(shardList) > 0 {
		sharded = client.NewSharded(client.ShardedConfig{
			Shards: shardList, MaxRetryWait: *retryWait,
			Tracer: tracer, OnHops: hops.add, Binary: *bin,
		})
		c, target = sharded, fmt.Sprintf("%d shards", len(shardList))
	} else {
		c = client.New(client.Config{
			BaseURL: *addr, MaxRetryWait: *retryWait,
			Tracer: tracer, OnHops: hops.add, Binary: *bin,
		})
	}
	defer c.Close()
	fmt.Printf("mrdload: %d sessions x %s (%d workloads) against %s (%s), policy %s, parity %v\n",
		*sessions, *group, len(names), target, transport, *policyKind, *parity)
	chaos := &killer{after: *killAfter, pid: *killPid}

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
			// The sharded client needs client-chosen IDs: the ID decides
			// the owning shard before the session exists. The binary
			// transport wants them too — the hello frame's session ID is
			// what gives the connection routing affinity.
			id := ""
			if sharded != nil || *bin {
				id = fmt.Sprintf("load-%d", i+1)
			}
			results[i] = runSession(c, id, names[i%len(names)], params, advCfg, *parity, *batch, chaos)
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
			fmt.Fprintf(os.Stderr, "mrdload: session %s failed: %v\n", r.workload, r.err)
		}
	}

	okSessions := *sessions - failed
	fmt.Printf("sessions:      %d ok, %d failed (%.1f sessions/s)\n",
		okSessions, failed, float64(okSessions)/elapsed.Seconds())
	fmt.Printf("advice calls:  %d (%.1f calls/s)\n", advances, float64(advances)/elapsed.Seconds())
	fmt.Printf("latency:       p50 %v  p99 %v\n", percentile(latencies, 50), percentile(latencies, 99))
	hops.report()
	if sharded != nil {
		st := sharded.Stats()
		fmt.Printf("failovers:     %d (re-route p50 %v  p99 %v)\n", st.Failovers, st.RerouteP50, st.RerouteP99)
		for _, ev := range st.Reroutes {
			line := fmt.Sprintf("  re-route:    %s -> %s (%d ops replayed, %v)", ev.Session, ev.Owner, ev.Ops, ev.Latency)
			if ev.Trace != "" {
				line += " trace=" + ev.Trace
			}
			fmt.Println(line)
		}
		perShard := make([]string, 0, len(st.SessionsPerShard))
		for _, sh := range shardList {
			perShard = append(perShard, fmt.Sprintf("%s=%d", sh, st.SessionsPerShard[sh]))
		}
		fmt.Printf("shard owners:  %s\n", strings.Join(perShard, "  "))
	}
	if *parity {
		fmt.Printf("parity:        %d advice checked, %d mismatches\n", checked, len(mismatches))
		for i, m := range mismatches {
			if i == 5 {
				fmt.Fprintf(os.Stderr, "mrdload: ... %d more mismatches\n", len(mismatches)-5)
				break
			}
			fmt.Fprintf(os.Stderr, "mrdload: MISMATCH %s\n", m)
		}
	}
	// A nil tracer writes empty-but-valid files so scripted runs can rely
	// on the artifact existing.
	summary, err := cli.ExportTraces(tracer, *traceOut, *traceChrome)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrdload: trace export: %v\n", err)
	}
	if summary != "" {
		fmt.Printf("traces:        %s\n", summary)
	}
	if failed > 0 || len(mismatches) > 0 {
		os.Exit(1)
	}
}

// runSession creates one server session, replays the workload's
// canonical schedule through the advisory API (per-step calls, or one
// batch call per job with batch set), and (under -parity) compares
// every advice fingerprint against the in-process oracle.
func runSession(c api, id, name string, params workload.Params, cfg service.AdvisorConfig, parity, batch bool, chaos *killer) sessionResult {
	res := sessionResult{workload: name}
	ctx := context.Background()

	spec, err := workload.Build(name, params)
	if err != nil {
		res.err = err
		return res
	}
	var oracle *service.Advisor
	if parity {
		// The oracle gets its own DAG instance: nothing is shared with the
		// request path, so agreement can only come from determinism.
		ospec, err := workload.Build(name, params)
		if err != nil {
			res.err = err
			return res
		}
		if oracle, err = service.NewAdvisor(ospec.Graph, cfg); err != nil {
			res.err = err
			return res
		}
	}

	created, err := c.CreateSession(ctx, service.CreateSessionRequest{ID: id, Workload: name, Params: params, Advisor: cfg})
	if err != nil {
		res.err = fmt.Errorf("create: %w", err)
		return res
	}
	defer c.DeleteSession(ctx, created.ID)

	if batch {
		return runBatchSession(c, created.ID, spec, oracle, res, chaos)
	}

	for _, st := range service.Schedule(spec.Graph) {
		if st.Stage < 0 {
			if _, err := c.SubmitJob(ctx, created.ID, st.Job); err != nil {
				res.err = fmt.Errorf("job %d: %w", st.Job, err)
				return res
			}
			if oracle != nil {
				if err := oracle.SubmitJob(st.Job); err != nil {
					res.err = err
					return res
				}
			}
			continue
		}
		t0 := time.Now()
		got, err := c.Advance(ctx, created.ID, st.Stage)
		res.latencies = append(res.latencies, time.Since(t0))
		if err != nil {
			res.err = fmt.Errorf("stage %d: %w", st.Stage, err)
			return res
		}
		res.advances++
		chaos.tick()
		if oracle != nil {
			want, err := oracle.Advance(st.Stage)
			if err != nil {
				res.err = err
				return res
			}
			res.checked++
			if g, w := got.Fingerprint(), want.Fingerprint(); g != w {
				res.mismatches = append(res.mismatches,
					fmt.Sprintf("%s seed=%d stage=%d\n  server: %s\n  oracle: %s", name, params.Seed, st.Stage, g, w))
			}
		}
	}
	return res
}

// runBatchSession replays the schedule one job per RunBatch call: the
// job's submit step plus every stage it creates, with the advices
// checked against the oracle in stream order.
func runBatchSession(c api, id string, spec *workload.Spec, oracle *service.Advisor, res sessionResult, chaos *killer) sessionResult {
	ctx := context.Background()
	sched := service.Schedule(spec.Graph)
	for start := 0; start < len(sched); {
		end := start + 1
		for end < len(sched) && sched[end].Stage >= 0 {
			end++
		}
		steps := sched[start:end]
		t0 := time.Now()
		resp, err := c.RunBatch(ctx, id, steps)
		res.latencies = append(res.latencies, time.Since(t0))
		if err != nil {
			res.err = fmt.Errorf("batch [%d:%d): %w", start, end, err)
			return res
		}
		res.advances += len(resp.Advices)
		for range resp.Advices {
			chaos.tick()
		}
		if oracle != nil {
			ai := 0
			for _, st := range steps {
				if st.Stage < 0 {
					if err := oracle.SubmitJob(st.Job); err != nil {
						res.err = err
						return res
					}
					continue
				}
				want, err := oracle.Advance(st.Stage)
				if err != nil {
					res.err = err
					return res
				}
				if ai >= len(resp.Advices) {
					res.mismatches = append(res.mismatches,
						fmt.Sprintf("%s seed=%d stage=%d\n  server: (missing advice)\n  oracle: %s", res.workload, spec.Params.Seed, st.Stage, want.Fingerprint()))
					continue
				}
				got := resp.Advices[ai]
				ai++
				res.checked++
				if g, w := got.Fingerprint(), want.Fingerprint(); g != w {
					res.mismatches = append(res.mismatches,
						fmt.Sprintf("%s seed=%d stage=%d\n  server: %s\n  oracle: %s", res.workload, spec.Params.Seed, st.Stage, g, w))
				}
			}
			if ai != len(resp.Advices) {
				res.mismatches = append(res.mismatches,
					fmt.Sprintf("%s seed=%d batch [%d:%d): %d advices for %d stage steps", res.workload, spec.Params.Seed, start, end, len(resp.Advices), ai))
			}
		}
		start = end
	}
	return res
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
