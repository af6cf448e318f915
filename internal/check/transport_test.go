package check

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"mrdspark/internal/policyspec"
	"mrdspark/internal/service"
	"mrdspark/internal/service/client"
	"mrdspark/internal/service/wire"
	"mrdspark/internal/workload"
)

// transportWorkloads is the sweep for the transport-parity leg: one
// workload per structural family (iterative graph, multi-job SQL-ish,
// ML pipeline, HiBench batch) rather than all 23 — the transports are
// workload-blind, so what matters is varied schedule shapes, not an
// exhaustive catalog.
var transportWorkloads = []string{"SCC", "PR", "TC", "KM", "HB-PageRank", "SVD"}

// TestTransportParity is the differential guarantee the binary protocol
// rides on: for every swept workload and seed, the per-step JSON API,
// the per-step frame protocol, and the streamed frame batch all return
// decision streams byte-identical to the in-process advisor replay.
// Any divergence — codec bug, frame corruption, batch ordering slip —
// lands here as a fingerprint mismatch.
func TestTransportParity(t *testing.T) {
	srv := service.NewServer(service.ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeFrames(ln)
	t.Cleanup(func() {
		ln.Close()
		ts.Close()
		srv.Close()
	})

	jsonC := client.New(client.Config{BaseURL: ts.URL})
	binC := client.New(client.Config{BaseURL: ts.URL, Binary: true, FrameAddr: ln.Addr().String()})
	t.Cleanup(binC.Close)

	cfg := service.AdvisorConfig{
		Nodes:      4,
		CacheBytes: 64 << 20,
		Policy:     policyspec.Spec{Kind: "MRD"},
	}

	for _, name := range transportWorkloads {
		for _, seed := range []int64{0, 11} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				params := workload.Params{Seed: seed}
				spec, err := workload.Build(name, params)
				if err != nil {
					t.Fatal(err)
				}
				adv, err := service.NewAdvisor(spec.Graph, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := service.Replay(adv)
				if err != nil {
					t.Fatal(err)
				}
				steps := service.Schedule(spec.Graph)

				legs := []struct {
					label string
					drive func(id string) ([]service.Advice, error)
				}{
					{"json", func(id string) ([]service.Advice, error) {
						return driveSteps(jsonC, id, name, params, cfg, steps)
					}},
					{"wire", func(id string) ([]service.Advice, error) {
						return driveSteps(binC, id, name, params, cfg, steps)
					}},
					{"batch", func(id string) ([]service.Advice, error) {
						return driveBatch(binC, id, name, params, cfg, steps)
					}},
				}
				for _, leg := range legs {
					id := fmt.Sprintf("tp-%s-%s-%d", leg.label, name, seed)
					got, err := leg.drive(id)
					if err != nil {
						t.Fatalf("%s leg: %v", leg.label, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s leg: %d advices, oracle has %d", leg.label, len(got), len(want))
					}
					for i := range got {
						if g, w := got[i].Fingerprint(), want[i].Fingerprint(); g != w {
							t.Fatalf("%s leg diverged at advice %d:\n  %s: %s\n  oracle: %s", leg.label, i, leg.label, g, w)
						}
					}
				}
			})
		}
	}
}

// driveSteps replays the schedule one call at a time over c.
func driveSteps(c *client.Client, id, name string, params workload.Params, cfg service.AdvisorConfig, steps []service.Step) ([]service.Advice, error) {
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, service.CreateSessionRequest{
		ID: id, Workload: name, Params: params, Advisor: cfg,
	}); err != nil {
		return nil, fmt.Errorf("create: %w", err)
	}
	var out []service.Advice
	for _, st := range steps {
		if st.Stage < 0 {
			if _, err := c.SubmitJob(ctx, id, st.Job); err != nil {
				return nil, fmt.Errorf("submit job %d: %w", st.Job, err)
			}
			continue
		}
		adv, err := c.Advance(ctx, id, st.Stage)
		if err != nil {
			return nil, fmt.Errorf("advance stage %d: %w", st.Stage, err)
		}
		out = append(out, adv)
	}
	if err := c.DeleteSession(ctx, id); err != nil {
		return nil, fmt.Errorf("delete: %w", err)
	}
	return out, nil
}

// driveBatch replays the whole schedule in one batch call over c.
func driveBatch(c *client.Client, id, name string, params workload.Params, cfg service.AdvisorConfig, steps []service.Step) ([]service.Advice, error) {
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, service.CreateSessionRequest{
		ID: id, Workload: name, Params: params, Advisor: cfg,
	}); err != nil {
		return nil, fmt.Errorf("create: %w", err)
	}
	resp, err := c.RunBatch(ctx, id, steps)
	if err != nil {
		return nil, fmt.Errorf("batch: %w", err)
	}
	if err := c.DeleteSession(ctx, id); err != nil {
		return nil, fmt.Errorf("delete: %w", err)
	}
	return resp.Advices, nil
}

// FuzzWireFrame throws arbitrary bytes at the frame reader and the
// binary payload codecs. Three properties must hold whatever the
// input: nothing panics, a forged length or count fails with an error
// before any oversized allocation, and any payload that DOES decode
// as an advice survives an encode/decode round trip value-identical —
// so there is no byte sequence that two ends of a connection interpret
// as different decisions.
func FuzzWireFrame(f *testing.F) {
	// A well-formed advice frame, a well-formed batch frame, and the
	// interesting degenerate shapes. The advice frames are encoded by
	// hand, one decision per block name, so that a seed can carry a name
	// no advisor would ever issue.
	adviceFrame := func(names ...string) []byte {
		var e wire.Enc
		e.Begin(wire.Header{Version: wire.Version, Op: wire.OpAdvice, Seq: 1})
		e.Uvarint(3) // stage
		e.Uvarint(1) // job
		e.U8(0)      // not replayed
		e.Uvarint(uint64(len(names)))
		for i, name := range names {
			e.U8(byte(i % 5)) // decision-kind code
			e.Uvarint(uint64(i))
			e.Str(name)
		}
		for _, c := range []uint64{5, 2, 0, 0, 3, 1, 0, 0} {
			e.Uvarint(c)
		}
		frame, err := e.Frame()
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	adviceSeed := adviceFrame("rdd_4_0", "rdd_7_3")
	batchSeed := func() []byte {
		var e wire.Enc
		e.Begin(wire.Header{Version: wire.Version, Op: wire.OpBatch, Seq: 2})
		service.AppendBatchPayload(&e, "fuzz-session", []service.Step{{Job: 0, Stage: -1}, {Job: 0, Stage: 4}})
		frame, err := e.Frame()
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}()
	f.Add(adviceSeed)
	f.Add(batchSeed)
	f.Add([]byte{})                          // empty stream
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})    // length over MaxFrame
	f.Add([]byte{0, 0, 0, 4, 1, 0x15, 0, 0}) // length under HeaderLen
	f.Add(adviceSeed[:len(adviceSeed)-3])    // truncated mid-payload
	// Block names that are not the canonical rdd_<r>_<p>: each must fail
	// with an error or round-trip value-identical, like any other input.
	for _, name := range []string{"r4p0", "rdd_007_1", "rdd_1_2x", "rdd_-1_2",
		"rdd_1_" + strings.Repeat("9", 40)} {
		f.Add(adviceFrame(name))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, _, err := wire.ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		if len(payload) > wire.MaxFrame {
			t.Fatalf("payload of %d bytes escaped the MaxFrame cap", len(payload))
		}
		// Whatever the opcode claims, both decoders must handle the
		// payload without panicking.
		ad := wire.NewDec(payload)
		adv, advErr := service.DecodeAdvicePayload(&ad)
		bd := wire.NewDec(payload)
		if _, _, err := service.DecodeBatchPayload(&bd); err != nil {
			_ = err
		}
		if advErr != nil {
			return
		}
		// Round trip: re-encoding a decoded advice and decoding it again
		// must reproduce the same value.
		var e wire.Enc
		e.Begin(wire.Header{Version: wire.Version, Op: h.Op, Seq: h.Seq})
		service.AppendAdvicePayload(&e, &adv)
		frame, err := e.Frame()
		if err != nil {
			// Only possible if the re-encoding exceeds MaxFrame, which a
			// decodable input cannot (varint re-encoding never inflates a
			// valid payload past the frame it came from plus slack).
			t.Fatalf("re-encode of decoded advice failed: %v", err)
		}
		_, p2, _, err := wire.ReadFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatalf("re-read of re-encoded frame failed: %v", err)
		}
		d2 := wire.NewDec(p2)
		adv2, err := service.DecodeAdvicePayload(&d2)
		if err != nil {
			t.Fatalf("decode of re-encoded advice failed: %v", err)
		}
		if !reflect.DeepEqual(adv, adv2) {
			t.Fatalf("advice round trip diverged:\n  first:  %+v\n  second: %+v", adv, adv2)
		}
	})
}
