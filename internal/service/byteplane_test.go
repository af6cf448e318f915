package service_test

import (
	"fmt"
	"slices"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/check"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/service"
)

// planeCall is one BytePlane call as the recording fake saw it.
type planeCall struct {
	Op    string // "spill", "drop" or "load"
	Node  int
	Block block.ID
}

// recordingPlane is a fake byte plane that only remembers its calls.
type recordingPlane struct{ calls []planeCall }

func (p *recordingPlane) Spill(node int, id block.ID) {
	p.calls = append(p.calls, planeCall{"spill", node, id})
}
func (p *recordingPlane) Drop(node int, id block.ID) {
	p.calls = append(p.calls, planeCall{"drop", node, id})
}
func (p *recordingPlane) Load(node int, id block.ID) {
	p.calls = append(p.calls, planeCall{"load", node, id})
}

// TestBytePlaneFollowsDecisions drives full MRD over the differential
// generator corpus with a recording byte plane and holds the hook to
// the decision log: every evict, prefetch-evict and purge decision is
// followed by exactly one spill (MEMORY_AND_DISK) or drop (MEMORY_ONLY)
// of that block on that node, every prefetch decision by exactly one
// load, in decision order, with no other calls — and installing the
// hook changes no fingerprint against a nil-hook twin.
func TestBytePlaneFollowsDecisions(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 24; seed++ {
		w := check.Generate(check.GenConfig{Seed: seed})
		cfg := service.AdvisorConfig{Nodes: w.Nodes, CacheBytes: w.CacheBytes, Policy: policyspec.Spec{Kind: "MRD"}}
		hooked, err := service.NewAdvisor(w.Graph, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plane := &recordingPlane{}
		hooked.SetBytePlane(plane)
		bare, err := service.NewAdvisor(w.Graph, cfg)
		if err != nil {
			t.Fatal(err)
		}

		for _, st := range service.Schedule(w.Graph) {
			mark := len(plane.calls)
			if st.Stage < 0 {
				if err := hooked.SubmitJob(st.Job); err != nil {
					t.Fatal(err)
				}
				if err := bare.SubmitJob(st.Job); err != nil {
					t.Fatal(err)
				}
				if len(plane.calls) != mark {
					t.Fatalf("seed %d job %d: byte plane called outside Advance: %v", seed, st.Job, plane.calls[mark:])
				}
				continue
			}
			adv, err := hooked.Advance(st.Stage)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := bare.Advance(st.Stage)
			if err != nil {
				t.Fatal(err)
			}
			if adv.Fingerprint() != twin.Fingerprint() {
				t.Fatalf("seed %d stage %d: the hook perturbed the accounting:\n hooked: %s\n nil:    %s",
					seed, st.Stage, adv.Fingerprint(), twin.Fingerprint())
			}
			var want []planeCall
			for _, d := range adv.Decisions {
				switch d.Kind {
				case "evict", "prefetch-evict", "purge":
					op := "drop"
					if w.Graph.RDDs[d.Block.RDD].Level == block.MemoryAndDisk {
						op = "spill"
					}
					want = append(want, planeCall{op, d.Node, d.Block})
				case "prefetch":
					want = append(want, planeCall{"load", d.Node, d.Block})
				}
			}
			got := plane.calls[mark:]
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d stage %d: byte-plane calls diverge from the decision log:\n got:  %v\n want: %v\n log:  %s",
					seed, st.Stage, got, want, adv.Fingerprint())
			}
			for _, c := range want {
				seen[c.Op]++
			}
		}
	}
	for _, op := range []string{"spill", "drop", "load"} {
		if seen[op] == 0 {
			t.Errorf("corpus never exercised %s (saw %s)", op, fmt.Sprint(seen))
		}
	}
}
