package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"mrdspark/internal/block"
)

// TestAdviceJSONIsItsShape: Advice and Decision render themselves, and
// what they render is byte for byte what encoding/json makes of the
// shapes they document (adviceJSON, decisionJSON) — for a kind outside
// the closed set that needs escaping, for nil and for empty decision
// lists, for replayed advice — and parses back to the same value, over
// the HTTP tier's writer as well, which sends a self-rendered response
// as rendered.
func TestAdviceJSONIsItsShape(t *testing.T) {
	cases := map[string]Advice{
		"nil decisions":   {Stage: 1, Job: 0},
		"empty decisions": {Stage: 2, Job: 1, Decisions: []Decision{}, Replayed: true},
		"every kind": {Stage: 7, Job: 2, Counters: Counters{Hits: 5, Misses: 4, Promotes: 3, Recomputes: 1, Inserts: 4, Evictions: 2, Purged: 1, Prefetches: 1},
			Decisions: []Decision{
				{Kind: "purge", Node: 0, Block: block.ID{RDD: 3, Partition: 1}},
				{Kind: "evict", Node: 1, Block: block.ID{RDD: 12}},
				{Kind: "prefetch", Node: 2},
				{Kind: "prefetch-evict", Node: 3, Block: block.ID{RDD: 140, Partition: 37}},
				{Kind: "prefetch-drop", Node: 0, Block: block.ID{RDD: 9, Partition: 256}},
			}},
		"a kind to escape": {Stage: 3, Job: 1, Decisions: []Decision{
			{Kind: "<exotic> \"kind\" & \u2028", Node: 1, Block: block.ID{RDD: 1, Partition: 2}},
		}},
	}
	for name, adv := range cases {
		shape := adviceJSON{Stage: adv.Stage, Job: adv.Job, Counters: adv.Counters, Replayed: adv.Replayed}
		if adv.Decisions != nil {
			shape.Decisions = []decisionJSON{}
		}
		for _, d := range adv.Decisions {
			shape.Decisions = append(shape.Decisions, decisionJSON{Kind: d.Kind, Node: d.Node, Block: d.Block.String()})
		}
		want, err := json.Marshal(shape)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(adv)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: json.Marshal(Advice)\n got %s\nwant %s", name, got, want)
		}
		for i, d := range adv.Decisions {
			got, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := json.Marshal(shape.Decisions[i]); !bytes.Equal(got, want) {
				t.Errorf("%s: json.Marshal(Decision %d)\n got %s\nwant %s", name, i, got, want)
			}
		}

		rec := httptest.NewRecorder()
		writeJSON(rec, 200, adv)
		if sent := rec.Body.Bytes(); !bytes.Equal(sent, append(want, '\n')) {
			t.Errorf("%s: writeJSON sent\n     %s\nwant %s", name, sent, want)
		}

		var back Advice
		if err := json.Unmarshal(want, &back); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(back, adv) {
			t.Errorf("%s: parsed back as %+v, want %+v", name, back, adv)
		}
	}

	for _, bad := range []string{
		`{"stage":1,"job":0,"decisions":[{"kind":"evict","node":0,"block":"rdd_1_2junk"}],"counters":{}}`,
		`{"stage":1,"job":0,"decisions":[{"kind":"evict","node":0,"block":"r4p0"}],"counters":{}}`,
		`{"stage":1,"job":0,"decisions":[{"kind":"evict","node":0}],"counters":{}}`,
	} {
		var adv Advice
		if err := json.Unmarshal([]byte(bad), &adv); err == nil {
			t.Errorf("json.Unmarshal(%s) = %+v, nil; want an error for the block name", bad, adv)
		}
	}
	var d Decision
	if err := json.Unmarshal([]byte(`{"kind":"evict","node":0,"block":"rdd_-1_2"}`), &d); err == nil {
		t.Errorf("a Decision with a signed block name parsed as %+v", d)
	}
}
