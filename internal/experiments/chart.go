package experiments

import (
	"fmt"
	"strings"
)

// barChart renders a horizontal ASCII bar chart: one row per label,
// bars scaled to scaleMax (0 = max value). It is how cmd/experiments
// approximates the paper's figures in a terminal.
func barChart(title string, labels []string, values []float64, render func(float64) string, scaleMax float64) string {
	if len(labels) != len(values) || len(labels) == 0 {
		return ""
	}
	return bars(title, labels, nil, [][]float64{values}, render, scaleMax, 44)
}

// seriesChart renders several aligned series as grouped bars — one
// block per label with one bar per series, scaled to the largest value.
func seriesChart(title string, labels []string, series map[string][]float64, order []string, render func(float64) string) string {
	ordered := make([][]float64, len(order))
	for j, name := range order {
		ordered[j] = series[name]
	}
	return bars(title, labels, order, ordered, render, 0, 36)
}

// bars is the renderer behind both: under the title, one block per
// label with one bar of width cells per series (a series too short for
// a label is skipped there), the label on the block's first row and the
// series' name — when there are names — in a column of its own.
func bars(title string, labels, names []string, series [][]float64, render func(float64) string, scaleMax float64, width int) string {
	if scaleMax <= 0 {
		for _, vs := range series {
			for _, v := range vs {
				scaleMax = max(scaleMax, v)
			}
		}
	}
	if scaleMax <= 0 {
		scaleMax = 1
	}
	labelW, nameW := 0, 0
	for _, l := range labels {
		labelW = max(labelW, len(l))
	}
	for _, n := range names {
		nameW = max(nameW, len(n))
	}
	var b strings.Builder
	b.WriteString(title)
	b.WriteString("\n")
	for i, l := range labels {
		for j, vs := range series {
			if i >= len(vs) {
				continue
			}
			if j > 0 {
				l = ""
			}
			fmt.Fprintf(&b, "  %-*s ", labelW, l)
			if names != nil {
				fmt.Fprintf(&b, "%-*s ", nameW, names[j])
			}
			n := min(max(int(vs[i]/scaleMax*float64(width)), 0), width)
			fmt.Fprintf(&b, "%s%s %s\n", strings.Repeat("#", n), strings.Repeat(".", width-n), render(vs[i]))
		}
	}
	return b.String()
}
