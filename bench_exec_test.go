package mrdspark

import (
	"testing"

	"mrdspark/internal/exec"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/workload"
)

// BenchmarkExecSCC really executes SCC — generated rows, live block
// managers, shuffles — under full MRD: the end-to-end cost of the
// execution engine, as opposed to BenchmarkSimulateSCC's modeled run.
// Small partitions keep the byte plane light so the decision plane and
// runtime overheads dominate, which is what the baseline tracks.
func BenchmarkExecSCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec, err := workload.Build("SCC", workload.Params{DataRows: 32})
		if err != nil {
			b.Fatal(err)
		}
		e, err := exec.New(spec, exec.Config{Policy: policyspec.MRD})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
