// Package experiments reproduces the paper's evaluation (§5) and the
// studies DESIGN.md adds to it. One query layer (query.go) turns a
// (workload, cluster, cache fraction, policy, fault schedule) tuple
// into a run; every table and figure is a query over it rendered as an
// aligned text table (suite.go lists them; EXPERIMENTS.md holds their
// output), and the sweep fabric runs the whole grid through the same
// layer.
package experiments

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is a renderable result: a title, a header row and data rows.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteString("\n")
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	if t.Note != "" {
		b.WriteString(t.Note)
		b.WriteString("\n")
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func pct(v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }

func pct1(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

func itoa(v int) string { return strconv.Itoa(v) }

// ms renders simulated microseconds as milliseconds.
func ms(us int64) string { return fmt.Sprintf("%.0fms", float64(us)/1000) }

// human renders a byte count in the paper's style (934M, 5.5G).
func human(b int64) string {
	switch {
	case b >= 10<<30:
		return fmt.Sprintf("%.0fG", float64(b)/float64(1<<30))
	case b >= 1<<30:
		return fmt.Sprintf("%.1fG", float64(b)/float64(1<<30))
	case b >= 10<<20:
		return fmt.Sprintf("%.0fM", float64(b)/float64(1<<20))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fM", float64(b)/float64(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.0fK", float64(b)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
