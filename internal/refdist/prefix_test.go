package refdist_test

import (
	"testing"

	"mrdspark/internal/refdist"
	"mrdspark/internal/workload"
)

// TestAdHocPrefixesAreWholeProfilePrefixes holds what lets the manager
// consult one profile: after any prefix of an application's jobs, the
// ad-hoc profile is a prefix of the recurring one. Every RDD it has is
// created where refdist.FromGraph creates it, and its reads begin the
// whole profile's reads, so a recurring run never misses a creation or
// a read that the submissions so far make. It lives outside the package
// because it runs the registry's workloads.
func TestAdHocPrefixesAreWholeProfilePrefixes(t *testing.T) {
	for _, name := range workload.Names() {
		spec, err := workload.Build(name, workload.Params{})
		if err != nil {
			t.Fatal(err)
		}
		whole := refdist.FromGraph(spec.Graph)
		adhoc := refdist.NewProfile()
		for _, j := range spec.Graph.Jobs {
			adhoc.AddJob(j)
			for _, id := range adhoc.RDDs() {
				if c, ok := adhoc.Creation(id); ok {
					if wc, wok := whole.Creation(id); !wok || wc != c {
						t.Fatalf("%s after job %d: RDD %d created at %+v ad-hoc, at %+v (%v) whole",
							name, j.ID, id, c, wc, wok)
					}
				}
				reads, wreads := adhoc.Reads(id), whole.Reads(id)
				if len(reads) > len(wreads) {
					t.Fatalf("%s after job %d: RDD %d has %d reads ad-hoc, %d whole",
						name, j.ID, id, len(reads), len(wreads))
				}
				for i := range reads {
					if reads[i] != wreads[i] {
						t.Fatalf("%s after job %d: RDD %d read %d is %+v ad-hoc, %+v whole",
							name, j.ID, id, i, reads[i], wreads[i])
					}
				}
			}
		}
		if !adhoc.Equal(whole) {
			t.Errorf("%s: the ad-hoc profile after every job differs from FromGraph", name)
		}
	}
}
