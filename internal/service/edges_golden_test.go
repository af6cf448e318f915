package service

import (
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"mrdspark/internal/service/wire"
)

// The two edges an Advice crosses — the JSON API and the OpAdvice frame
// — pinned byte for byte, with one decision of each of the five kinds.
// The advice is built from the JSON golden, so the test reads the same
// whatever type Decision.Block has: no change to how a decision is held
// in memory may move a byte of either rendering, or of the fingerprint
// the parity oracles compare.
const (
	goldenAdviceJSON = `{"stage":7,"job":2,"decisions":[` +
		`{"kind":"purge","node":0,"block":"rdd_3_1"},` +
		`{"kind":"evict","node":1,"block":"rdd_12_0"},` +
		`{"kind":"prefetch","node":2,"block":"rdd_0_0"},` +
		`{"kind":"prefetch-evict","node":3,"block":"rdd_140_37"},` +
		`{"kind":"prefetch-drop","node":0,"block":"rdd_9_256"}],` +
		`"counters":{"hits":5,"misses":4,"promotes":3,"recomputes":1,"inserts":4,"evictions":2,"purged":1,"prefetches":1}}`

	goldenAdviceFrameHex = "00000054" + // length: header + payload
		"0115000001020304000000000000002a" + // version, OpAdvice, flags, epoch, seq
		"07020005" + // stage, job, replayed, decision count
		"00000772" + "64645f335f31" + // purge, node 0, "rdd_3_1"
		"01010872" + "64645f31325f30" + // evict, node 1, "rdd_12_0"
		"02020772" + "64645f305f30" + // prefetch, node 2, "rdd_0_0"
		"03030a72" + "64645f3134305f3337" + // prefetch-evict, node 3, "rdd_140_37"
		"04000972" + "64645f395f323536" + // prefetch-drop, node 0, "rdd_9_256"
		"0504030104020101" // counters

	goldenAdviceFingerprint = "stage=7 job=2 purge:0:rdd_3_1 evict:1:rdd_12_0 prefetch:2:rdd_0_0" +
		" prefetch-evict:3:rdd_140_37 prefetch-drop:0:rdd_9_256" +
		" | hits=5 misses=4 promotes=3 recomputes=1 inserts=4 evictions=2 purged=1 prefetches=1"
)

func TestAdviceEdgesPinned(t *testing.T) {
	var adv Advice
	if err := json.Unmarshal([]byte(goldenAdviceJSON), &adv); err != nil {
		t.Fatal(err)
	}
	if len(adv.Decisions) != len(decisionKinds) {
		t.Fatalf("golden carries %d decisions; want one of each of the %d kinds", len(adv.Decisions), len(decisionKinds))
	}
	for i, d := range adv.Decisions {
		if d.Kind != decisionKinds[i] {
			t.Fatalf("decision %d is a %q; want %q", i, d.Kind, decisionKinds[i])
		}
	}

	gotJSON, err := json.Marshal(adv)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != goldenAdviceJSON {
		t.Errorf("advice JSON moved:\n got %s\nwant %s", gotJSON, goldenAdviceJSON)
	}

	var e wire.Enc
	e.Begin(wire.Header{Version: wire.Version, Op: wire.OpAdvice, Epoch: 0x01020304, Seq: 42})
	AppendAdvicePayload(&e, &adv)
	frame, err := e.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(frame); got != goldenAdviceFrameHex {
		t.Errorf("OpAdvice frame moved:\n got %s\nwant %s", got, goldenAdviceFrameHex)
	}

	want, err := hex.DecodeString(goldenAdviceFrameHex)
	if err != nil {
		t.Fatal(err)
	}
	d := wire.NewDec(want[4+wire.HeaderLen:])
	back, err := DecodeAdvicePayload(&d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, adv) {
		t.Errorf("pinned frame decodes to %+v; the JSON golden gives %+v", back, adv)
	}

	if got := adv.Fingerprint(); got != goldenAdviceFingerprint {
		t.Errorf("fingerprint moved:\n got %s\nwant %s", got, goldenAdviceFingerprint)
	}
}
