package obs

import (
	"fmt"
	"io"

	"mrdspark/internal/metrics"
)

// WritePrometheus renders the aggregated run in the Prometheus text
// exposition format (version 0.0.4): per-stage and per-node counters
// with label sets, plus the four run histograms in the cumulative
// le-bucket convention. Output is deterministic — stages in execution
// order, nodes by index — so it golden-tests and diffs cleanly.
//
// A re-executed stage ID (recurring jobs replay their DAG) would
// collide as a label set, so every stage series carries an exec label:
// the stage's position in execution order.
func WritePrometheus(w io.Writer, a *Aggregator) error {
	bw := NewPromWriter(w)

	bw.Printf("# HELP mrdspark_stage_events Per-stage event counts by kind.\n")
	bw.Printf("# TYPE mrdspark_stage_events counter\n")
	for i, st := range a.StageStats() {
		labels := fmt.Sprintf(`exec="%d",stage="%d",job="%d"`, i, st.StageID, st.JobID)
		for _, c := range []struct {
			kind string
			v    int64
		}{
			{"hit", st.Hits}, {"miss", st.Misses}, {"promote", st.DiskPromotes},
			{"recompute", st.Recomputes}, {"insert", st.Inserts}, {"evict", st.Evictions},
			{"purge", st.Purged}, {"prefetch_issued", st.PrefetchIssued},
			{"prefetch_used", st.PrefetchUsed}, {"prefetch_wasted", st.PrefetchWasted},
			{"fetch_retry", st.FetchRetries}, {"fetch_giveup", st.FetchGiveUps},
		} {
			bw.Printf("mrdspark_stage_events{%s,kind=%q} %d\n", labels, c.kind, c.v)
		}
		bw.Printf("mrdspark_stage_bytes_moved{%s} %d\n", labels, st.BytesMoved)
		bw.Printf("mrdspark_stage_duration_us{%s} %d\n", labels, st.DurationUs())
	}

	bw.Printf("# HELP mrdspark_node_events Per-node event counts by kind.\n")
	bw.Printf("# TYPE mrdspark_node_events counter\n")
	for _, n := range a.NodeStats() {
		labels := fmt.Sprintf(`node="%d"`, n.Node)
		for _, c := range []struct {
			kind string
			v    int64
		}{
			{"hit", n.Hits}, {"miss", n.Misses}, {"promote", n.DiskPromotes},
			{"recompute", n.Recomputes}, {"insert", n.Inserts}, {"evict", n.Evictions},
			{"purge", n.Purged}, {"prefetch_issued", n.PrefetchIssued},
			{"prefetch_used", n.PrefetchUsed}, {"prefetch_wasted", n.PrefetchWasted},
			{"task", n.Tasks}, {"crash", n.Crashes}, {"straggle", n.Stragglers},
		} {
			bw.Printf("mrdspark_node_events{%s,kind=%q} %d\n", labels, c.kind, c.v)
		}
		bw.Printf("mrdspark_node_bytes_moved{%s} %d\n", labels, n.BytesMoved)
		bw.Printf("mrdspark_node_disk_busy_us{%s} %d\n", labels, n.DiskBusyUs)
		bw.Printf("mrdspark_node_net_busy_us{%s} %d\n", labels, n.NetBusyUs)
	}

	for _, h := range a.Histograms() {
		writePromHistogram(bw, h)
	}
	return bw.Err()
}

// writePromHistogram renders one fixed-bucket histogram with the
// cumulative le convention Prometheus expects.
func writePromHistogram(bw *PromWriter, h *metrics.Histogram) {
	name := "mrdspark_" + h.Name
	bw.Printf("# HELP %s Distribution in %s.\n", name, h.Unit)
	bw.Printf("# TYPE %s histogram\n", name)
	var cum int64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		bw.Printf("%s_bucket{le=\"%d\"} %d\n", name, bound, cum)
	}
	bw.Printf("%s_bucket{le=\"+Inf\"} %d\n", name, cum+h.Overflow)
	bw.Printf("%s_sum %d\n", name, h.Sum)
	bw.Printf("%s_count %d\n", name, h.Count)
}

// PromWriter renders exposition lines onto w, folding write errors
// into one sticky error so the exposition loops stay flat. It is the
// one such writer: the service tier's /metrics series go through it too.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter starts an exposition on w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Printf writes one formatted fragment; after a failed write it is a
// no-op.
func (p *PromWriter) Printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Scalar writes one unlabelled series: its # HELP and # TYPE lines
// (kind is "counter" or "gauge") and the sample.
func (p *PromWriter) Scalar(name, kind, help string, v int64) {
	p.Printf("# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, kind, name, v)
}

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }
