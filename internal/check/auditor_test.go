package check

import (
	"fmt"
	"strings"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/obs"
)

// TestAuditorRejects shows every law of the auditor a hand-written
// stream that breaks it — and only it — and holds the report to the
// exact violation text. A law whose negative is missing here has never
// been seen to fail.
func TestAuditorRejects(t *testing.T) {
	a, b := block.ID{RDD: 1, Partition: 0}, block.ID{RDD: 2, Partition: 0}
	ev := func(kind obs.Kind, node int, id block.ID, bytes int64) obs.Event {
		e := obs.BlockEv(kind, node, id, bytes)
		e.Stage = 3
		return e
	}
	// A miss and the recompute that resolves it, so that a stream about
	// something else does not also leave a miss open.
	miss := func(id block.ID) []obs.Event {
		return []obs.Event{ev(obs.KindMiss, 0, id, 10), ev(obs.KindRecompute, 0, id, 10)}
	}
	cfg := AuditorConfig{Nodes: 2, CacheBytes: 25}
	for _, tc := range []struct {
		law    string
		cfg    AuditorConfig
		events []obs.Event
		want   []string
	}{
		{"node index in range", cfg,
			[]obs.Event{ev(obs.KindInsert, 2, a, 10), obs.Ev(obs.KindNodeFail, -2)},
			[]string{"insert event on out-of-range node 2", "node-fail event on out-of-range node -2"}},
		{"hit only on a resident block", cfg,
			[]obs.Event{ev(obs.KindInsert, 1, a, 10), ev(obs.KindHit, 0, a, 10)},
			[]string{"stage 3: hit on node 0 for rdd_1_0, which the stream never made resident there"}},
		{"no miss on a resident block", cfg,
			append([]obs.Event{ev(obs.KindInsert, 0, a, 10)}, miss(a)...),
			[]string{"stage 3: miss on node 0 for resident block rdd_1_0"}},
		{"no duplicate insert", cfg,
			[]obs.Event{ev(obs.KindInsert, 0, a, 10), ev(obs.KindInsert, 0, a, 10)},
			[]string{"stage 3: duplicate insert of rdd_1_0 on node 0"}},
		{"a prefetch does not land on a resident block", cfg,
			[]obs.Event{ev(obs.KindInsert, 0, a, 10), ev(obs.KindPrefetchIssue, 0, a, 10), ev(obs.KindPrefetchArrive, 0, a, 10)},
			[]string{"stage 3: duplicate insert of rdd_1_0 on node 0"}},
		{"bytes within capacity once the evictions are in", cfg,
			// The first overshoot is closed by its eviction; the second is
			// followed by another node's eviction, which does not count.
			[]obs.Event{ev(obs.KindInsert, 0, a, 20), ev(obs.KindInsert, 0, b, 20), ev(obs.KindEvict, 0, a, 20),
				ev(obs.KindInsert, 1, a, 20), ev(obs.KindInsert, 0, a, 10), ev(obs.KindEvict, 1, a, 20)},
			[]string{"stage 3: node 0 resident bytes 30 exceed capacity 25 after inserting rdd_1_0"}},
		{"bytes within capacity at the end", cfg,
			[]obs.Event{ev(obs.KindInsert, 0, a, 20), ev(obs.KindInsert, 0, b, 20)},
			[]string{"stage 3: node 0 resident bytes 40 exceed capacity 25 after inserting rdd_2_0"}},
		{"eviction only of a held block", cfg,
			[]obs.Event{ev(obs.KindEvict, 0, a, 10), ev(obs.KindPurge, 1, b, 0)},
			[]string{"stage 3: evict of rdd_1_0 on node 0, which holds no such block",
				"stage 3: purge of rdd_2_0 on node 1, which holds no such block"}},
		{"arrivals within issues", cfg,
			[]obs.Event{ev(obs.KindPrefetchArrive, 0, a, 10)},
			[]string{"1 prefetch arrivals exceed 0 issues"}},
		{"every miss resolved", cfg,
			[]obs.Event{ev(obs.KindMiss, 0, a, 10), ev(obs.KindMiss, 0, b, 10), ev(obs.KindPromote, 0, a, 10)},
			[]string{"2 misses not all resolved: 1 promotes + 0 replica hits + 0 recomputes"}},
		{"promotes and replica hits within misses", cfg,
			[]obs.Event{ev(obs.KindMiss, 0, a, 10), ev(obs.KindPromote, 0, a, 10), ev(obs.KindReplicaHit, 1, a, 10)},
			[]string{"1 promotes + 1 replica hits exceed 1 misses"}},
		{"reads as the DAG determines", AuditorConfig{Nodes: 2, CacheBytes: 25, ExpectedReads: 3},
			append(miss(a), ev(obs.KindInsert, 0, a, 10), ev(obs.KindHit, 0, a, 10)),
			[]string{"hits 1 + misses 1 != DAG-determined reads 3"}},
		{"ledger: a first read is stamped", cfg,
			[]obs.Event{ev(obs.KindPrefetchIssue, 0, a, 10), ev(obs.KindPrefetchArrive, 0, a, 10), ev(obs.KindHit, 0, a, 10)},
			[]string{"stage 3: hit of rdd_1_0 on node 0 stamped unread=false, but the stream's arrivals and hits say true"}},
		{"ledger: only a first read is stamped", cfg,
			[]obs.Event{ev(obs.KindPrefetchIssue, 0, a, 10), ev(obs.KindPrefetchArrive, 0, a, 10),
				ev(obs.KindHit, 0, a, 10).Settling(true), ev(obs.KindHit, 0, a, 10).Settling(true)},
			[]string{"stage 3: hit of rdd_1_0 on node 0 stamped unread=true, but the stream's arrivals and hits say false"}},
		{"ledger: an unread exit is stamped, a demand block's is not", cfg,
			[]obs.Event{ev(obs.KindPrefetchIssue, 0, a, 10), ev(obs.KindPrefetchArrive, 0, a, 10), ev(obs.KindPurge, 0, a, 0),
				ev(obs.KindInsert, 1, b, 10), ev(obs.KindEvict, 1, b, 10).Settling(true),
				ev(obs.KindBlockLost, 1, a, 0).Settling(true)},
			[]string{"stage 3: purge of rdd_1_0 on node 0 stamped unread=false, but the stream's arrivals and hits say true",
				"stage 3: evict of rdd_2_0 on node 1 stamped unread=true, but the stream's arrivals and hits say false",
				"stage 3: block-lost of rdd_1_0 on node 1 stamped unread=true, but the stream's arrivals and hits say false"}},
		{"ledger: a node failure names what it destroyed", cfg,
			[]obs.Event{ev(obs.KindPrefetchIssue, 0, a, 10), ev(obs.KindPrefetchArrive, 0, a, 10),
				ev(obs.KindPrefetchIssue, 0, b, 10), ev(obs.KindPrefetchArrive, 0, b, 10).WithVerdict(obs.VerdictRefused),
				obs.Ev(obs.KindNodeFail, 0)},
			[]string{"stage 0: failure of node 0 names 0 unread prefetches destroyed, the stream left 1 there"}},
	} {
		t.Run(tc.law, func(t *testing.T) {
			aud := NewAuditor(tc.cfg)
			for _, e := range tc.events {
				aud.Observe(e)
			}
			want := "check: invariant violations:\n  " + strings.Join(tc.want, "\n  ")
			if err := aud.Finish(); err == nil || err.Error() != want {
				t.Errorf("auditor said:\n%v\nwant:\n%s", err, want)
			}
		})
	}
}

// TestAuditorAcceptsASettledStream is the positive the negatives are
// cut from: every way a prefetch can settle, stamped as the hosts stamp
// it, with one prefetch still in flight and one resident and unread at
// the end, audits clean.
func TestAuditorAcceptsASettledStream(t *testing.T) {
	id := func(p int) block.ID { return block.ID{RDD: 1, Partition: p} }
	var events []obs.Event
	for p := 0; p < 8; p++ {
		events = append(events, obs.BlockEv(obs.KindPrefetchIssue, 0, id(p), 1))
	}
	for p := 0; p < 5; p++ {
		events = append(events, obs.BlockEv(obs.KindPrefetchArrive, 0, id(p), 1))
	}
	events = append(events,
		obs.BlockEv(obs.KindHit, 0, id(0), 1).Settling(true),
		obs.BlockEv(obs.KindHit, 0, id(0), 1),
		obs.BlockEv(obs.KindEvict, 0, id(0), 1),
		obs.BlockEv(obs.KindEvict, 0, id(1), 1).Settling(true),
		obs.BlockEv(obs.KindPurge, 0, id(2), 0).Settling(true),
		obs.BlockEv(obs.KindBlockLost, 0, id(3), 0).Settling(true),
		obs.BlockEv(obs.KindBlockLost, 0, id(3), 0), // its disk copy, later
		obs.BlockEv(obs.KindPrefetchArrive, 0, id(5), 1).WithVerdict(obs.VerdictResident),
		obs.Ev(obs.KindNodeFail, 0).WithValue(1),
		obs.BlockEv(obs.KindPrefetchArrive, 0, id(6), 1).WithVerdict(obs.VerdictDown),
		obs.BlockEv(obs.KindPrefetchIssue, 0, id(4), 1),
		obs.BlockEv(obs.KindPrefetchArrive, 0, id(4), 1),
	)
	aud := NewAuditor(AuditorConfig{Nodes: 1, CacheBytes: 8})
	bus := obs.New()
	aud.AttachBus(bus)
	agg := obs.NewAggregator()
	agg.Attach(bus)
	for _, e := range events {
		bus.Emit(e)
	}
	if err := aud.Finish(); err != nil {
		t.Fatal(err)
	}
	// 9 issued: 1 used; 6 wasted (evicted, purged, lost, destroyed by the
	// failure, two aborted); 1 pending; 1 never arrived.
	if err := ledgerAgrees(agg, ledger{issued: 9, used: 1, wasted: 6}, 2); err != nil {
		t.Error(err)
	}
}

// TestAuditorReportIsBounded: a stream that is wrong throughout is
// reported by its first 32 violations.
func TestAuditorReportIsBounded(t *testing.T) {
	aud := NewAuditor(AuditorConfig{Nodes: 1})
	for i := 0; i < 100; i++ {
		aud.Observe(obs.Ev(obs.KindTaskStart, 7))
	}
	if got := strings.Count(aud.Err().Error(), "out-of-range node 7"); got != 32 {
		t.Errorf("report carries %d violations, want the first 32", got)
	}
}

// TestDigestDiffNamesTheDelta: two per-stage digests that differ are
// explained by the first stage that does, with what each side decided
// and the other did not — four entries at most, and a side that decided
// nothing extra is named a subset.
func TestDigestDiffNamesTheDelta(t *testing.T) {
	stream := func(stage int, kinds ...obs.Kind) []obs.Event {
		var out []obs.Event
		for p, k := range kinds {
			e := obs.BlockEv(k, 0, block.ID{RDD: 1, Partition: p}, 1)
			e.Stage = stage
			out = append(out, e)
		}
		return out
	}
	base := StageDigests(stream(1, obs.KindHit, obs.KindMiss, obs.KindTaskStart))
	if d := diffDigests("a", base, "b", StageDigests(stream(1, obs.KindHit, obs.KindHit))); d != "stage 1: a decided [miss:0:rdd_1_1] but b decided [hit:0:rdd_1_1]" {
		t.Errorf("one block read differently: %s", d)
	}
	same := StageDigests(append(stream(1, obs.KindHit, obs.KindMiss), stream(1, obs.KindTaskEnd)...))
	if d := diffDigests("a", base, "b", same); d != "" {
		t.Errorf("digests that differ only in scheduling events: %s", d)
	}
	more := StageDigests(append(stream(1, obs.KindHit, obs.KindMiss),
		stream(2, obs.KindInsert, obs.KindInsert, obs.KindInsert, obs.KindInsert, obs.KindInsert)...))
	want := "stage 2: a decided [(subset: fewer events)] but b decided [insert:0:rdd_1_0 insert:0:rdd_1_1 insert:0:rdd_1_2 insert:0:rdd_1_3]"
	if d := diffDigests("a", base, "b", more); d != want {
		t.Errorf("got  %s\nwant %s", d, want)
	}
	if d := diffDigests("b", more, "a", base); d != fmt.Sprintf("stage 2: b decided %s but a decided [(subset: fewer events)]", want[strings.Index(want, "[insert"):]) {
		t.Errorf("mirrored: %s", d)
	}
}
