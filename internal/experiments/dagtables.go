package experiments

import (
	"fmt"
	"strings"

	"mrdspark/internal/cluster"
	"mrdspark/internal/refdist"
	"mrdspark/internal/workload"
)

// The artifacts read off the DAGs alone: Tables 1 and 3 and the Fig 2
// policy-metric trace.

// table1Row is one workload's reference-distance characteristics
// (paper Table 1) beside the published values (avg job, max job, avg
// stage, max stage distance).
type table1Row struct {
	spec  *workload.Spec
	stats refdist.Stats
	paper [4]float64
}

// paperTable1 records the published Table 1 numbers.
var paperTable1 = map[string][4]float64{
	// name: avg job, max job, avg stage, max stage
	"KM":           {5.15, 16, 5.34, 19},
	"LinR":         {1.24, 5, 1.76, 8},
	"LogR":         {1.53, 6, 2.00, 9},
	"SVM":          {1.48, 6, 1.96, 10},
	"DT":           {2.71, 9, 4.38, 15},
	"MF":           {1.56, 7, 3.31, 18},
	"PR":           {1.74, 5, 6.08, 19},
	"TC":           {0.07, 1, 1.23, 6},
	"SP":           {0.19, 1, 1.19, 4},
	"LP":           {7.19, 22, 28.37, 85},
	"SVD":          {3.51, 11, 6.82, 23},
	"CC":           {1.30, 4, 5.31, 16},
	"SCC":          {7.77, 24, 29.96, 90},
	"PO":           {1.28, 4, 5.45, 16},
	"HB-Sort":      {0, 0, 0, 0},
	"HB-WordCount": {0, 0, 0, 0},
	"HB-TeraSort":  {0.22, 1, 0.22, 1},
	"HB-PageRank":  {0, 0, 0.09, 2},
	"HB-Bayes":     {2.09, 7, 3.23, 9},
	"HB-KMeans":    {6.08, 19, 6.60, 25},
}

// table1 measures the reference-distance characteristics of the 20
// workloads of the paper's two suites from their DAGs.
func table1() []table1Row {
	var rows []table1Row
	for _, spec := range suiteSpecs("SparkBench", "HiBench") {
		rows = append(rows, table1Row{spec, refdist.FromGraph(spec.Graph).Stats(), paperTable1[spec.Name]})
	}
	return rows
}

func renderTable1(rows []table1Row) string {
	t := Table{
		Title: "Table 1: Reference distance characteristics of benchmark workloads (measured vs paper)",
		Header: []string{"Workload", "Suite",
			"AvgJobDist", "(paper)", "MaxJobDist", "(paper)",
			"AvgStageDist", "(paper)", "MaxStageDist", "(paper)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.spec.Name, r.spec.Suite,
			f2(r.stats.AvgJobDistance), f2(r.paper[0]),
			itoa(r.stats.MaxJobDistance), itoa(int(r.paper[1])),
			f2(r.stats.AvgStageDistance), f2(r.paper[2]),
			itoa(r.stats.MaxStageDistance), itoa(int(r.paper[3])),
		})
	}
	return t.Render()
}

// table3 characterizes each SparkBench workload's DAG and measures its
// stage-input and shuffle volumes with a plain-LRU run on the main
// cluster (paper Table 3).
func table3() string {
	t := Table{
		Title: "Table 3: SparkBench benchmark characteristics (measured)",
		Header: []string{"Workload", "Category", "Input", "StageInputs", "ShuffleR/W",
			"Jobs", "Stages", "Active", "RDDs", "Refs/RDD", "Refs/Stage", "JobType"},
	}
	for _, spec := range suiteSpecs("SparkBench") {
		run := scenario{spec, cluster.Main()}.under(SpecLRU)
		c := spec.Graph.Characterize()
		t.Rows = append(t.Rows, []string{
			spec.Name, spec.Category, human(spec.InputBytes), human(run.StageInputBytes),
			human(run.ShuffleReadBytes) + "/" + human(run.ShuffleWriteBytes),
			itoa(c.Jobs), itoa(c.Stages), itoa(c.ActiveStages),
			itoa(c.RDDs), f2(c.RefsPerRDD), f2(c.RefsPerStage),
			string(spec.JobType),
		})
	}
	return t.Render()
}

// fig2Cell is one (stage, cached RDD) point in the policy-behaviour
// comparison (paper Fig 2): the value each policy's metric assigns the
// RDD while that stage executes. Higher LRU age, lower LRC count and
// higher (or infinite) MRD distance all mean "more likely evicted".
type fig2Cell struct {
	LRUAge      int  // stages since last access
	LRCCount    int  // remaining references
	MRDDistance int  // stage distance; refdist.Infinite when dead
	Referenced  bool // the stage reads this RDD
	Exists      bool // the RDD has been created by this stage
}

// fig2Trace is the full matrix for one workload.
type fig2Trace struct {
	Workload string
	RDDs     []int                    // cached RDD IDs, column order
	Stages   []int                    // executed stage IDs, row order
	Cells    map[int]map[int]fig2Cell // stage -> rdd -> cell
}

// fig2 traces the three policies' metrics across the CC workload, the
// workload the paper uses to contrast LRU, LRC and MRD behaviour.
func fig2(name string) fig2Trace {
	g := mustBuild(name, workload.Params{}).Graph
	profile := refdist.FromGraph(g)
	reads := g.StageReads()

	tr := fig2Trace{Workload: name, RDDs: profile.RDDs(), Cells: map[int]map[int]fig2Cell{}}
	lastAccess := map[int]int{}
	exists := map[int]bool{}
	for _, s := range g.ExecutedStages() {
		tr.Stages = append(tr.Stages, s.ID)
		readSet := map[int]bool{}
		for _, r := range reads[s.ID] {
			readSet[r.ID] = true
		}
		row := map[int]fig2Cell{}
		for _, id := range tr.RDDs {
			cell := fig2Cell{Referenced: readSet[id]}
			if c, ok := profile.Creation(id); ok && c.Stage <= s.ID {
				exists[id] = true
				if _, seen := lastAccess[id]; !seen || c.Stage > lastAccess[id] {
					lastAccess[id] = c.Stage
				}
			}
			if exists[id] {
				cell.Exists = true
				cell.LRUAge = s.ID - lastAccess[id]
				cell.LRCCount = remainingReads(profile, id, s.ID)
				cell.MRDDistance = profile.StageDistance(id, s.ID)
				if readSet[id] {
					lastAccess[id] = s.ID
					cell.LRUAge = 0
				}
			}
			row[id] = cell
		}
		tr.Cells[s.ID] = row
	}
	return tr
}

func remainingReads(p *refdist.Profile, rddID, curStage int) int {
	n := 0
	for _, r := range p.Reads(rddID) {
		if r.Stage >= curStage {
			n++
		}
	}
	return n
}

// renderFig2 formats the trace for the first maxRDDs cached RDDs as a
// stage-by-RDD matrix of LRU/LRC/MRD values, referenced cells marked
// with '*'.
func renderFig2(tr fig2Trace, maxRDDs int) string {
	rdds := tr.RDDs
	if len(rdds) > maxRDDs {
		rdds = rdds[:maxRDDs]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: policy metric traces on %s (cells: LRUage/LRCcount/MRDdist, * = referenced, . = not yet created, inf = no further references)\n", tr.Workload)
	fmt.Fprintf(&b, "%-8s", "stage")
	for _, id := range rdds {
		fmt.Fprintf(&b, "%-16s", fmt.Sprintf("RDD%d", id))
	}
	b.WriteString("\n")
	for _, sid := range tr.Stages {
		fmt.Fprintf(&b, "%-8d", sid)
		for _, id := range rdds {
			c := tr.Cells[sid][id]
			switch {
			case !c.Exists:
				fmt.Fprintf(&b, "%-16s", ".")
			default:
				dist := "inf"
				if !refdist.IsInfinite(c.MRDDistance) {
					dist = itoa(c.MRDDistance)
				}
				mark := ""
				if c.Referenced {
					mark = "*"
				}
				fmt.Fprintf(&b, "%-16s", fmt.Sprintf("%d/%d/%s%s", c.LRUAge, c.LRCCount, dist, mark))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
