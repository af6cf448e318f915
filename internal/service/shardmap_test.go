package service_test

import (
	"fmt"
	"testing"

	"mrdspark/internal/service"
)

func testShards() []string {
	return []string{"http://s1:7701", "http://s2:7702", "http://s3:7703"}
}

func keysOwned(m *service.ShardMap, n int) map[string]string {
	owners := map[string]string{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("session-%d", i)
		owners[k] = m.Owner(k)
	}
	return owners
}

// TestShardMapDeterministicAndBalanced: two independently built maps
// agree on every owner (clients and routers route consistently with no
// coordination), and rendezvous hashing spreads keys across all
// shards.
func TestShardMapDeterministicAndBalanced(t *testing.T) {
	a, b := service.NewShardMap(testShards()), service.NewShardMap(testShards())
	perShard := map[string]int{}
	for k, owner := range keysOwned(a, 1000) {
		if got := b.Owner(k); got != owner {
			t.Fatalf("maps disagree on %q: %q vs %q", k, owner, got)
		}
		perShard[owner]++
	}
	for _, s := range testShards() {
		if perShard[s] == 0 {
			t.Errorf("shard %s owns no keys out of 1000", s)
		}
	}
	// Rough balance: no shard should own more than half of the keys.
	for s, n := range perShard {
		if n > 500 {
			t.Errorf("shard %s owns %d/1000 keys — distribution is badly skewed", s, n)
		}
	}
}

// TestShardMapMinimalDisruption: killing one shard must move ONLY the
// keys it owned; every other key keeps its owner. Reviving it must
// restore the exact original assignment.
func TestShardMapMinimalDisruption(t *testing.T) {
	m := service.NewShardMap(testShards())
	before := keysOwned(m, 1000)
	dead := testShards()[1]

	if !m.MarkDead(dead) {
		t.Fatal("MarkDead returned false for a live shard")
	}
	if m.MarkDead(dead) {
		t.Error("MarkDead returned true twice")
	}
	if v := m.Version(); v != 1 {
		t.Errorf("version after MarkDead = %d, want 1", v)
	}
	moved := 0
	for k, owner := range keysOwned(m, 1000) {
		if before[k] == dead {
			moved++
			if owner == dead || owner == "" {
				t.Fatalf("key %q still routed to the dead shard", k)
			}
		} else if owner != before[k] {
			t.Fatalf("key %q moved from %q to %q although its owner survived", k, before[k], owner)
		}
	}
	if moved == 0 {
		t.Fatal("dead shard owned no keys — test is vacuous")
	}

	if !m.MarkAlive(dead) {
		t.Fatal("MarkAlive returned false for a dead shard")
	}
	for k, owner := range keysOwned(m, 1000) {
		if owner != before[k] {
			t.Fatalf("key %q did not return to %q after revival (got %q)", k, before[k], owner)
		}
	}
	if alive := m.Alive(); len(alive) != 3 {
		t.Errorf("Alive after revival = %v", alive)
	}
}

// TestShardMapAllDead: with no live shards Owner returns empty rather
// than inventing a destination.
func TestShardMapAllDead(t *testing.T) {
	m := service.NewShardMap(testShards())
	for _, s := range testShards() {
		m.MarkDead(s)
	}
	if owner := m.Owner("k"); owner != "" {
		t.Fatalf("Owner with all shards dead = %q, want empty", owner)
	}
}

// rendezvousOrder lists the shards in the order key fails over through
// them, computed on a scratch map.
func rendezvousOrder(key string) []string {
	m := service.NewShardMap(testShards())
	var order []string
	for o := m.Owner(key); o != ""; o = m.Owner(key) {
		order = append(order, o)
		m.MarkDead(o)
	}
	return order
}

// TestShardMapWalk pins the one owner walk the router's two proxies and
// the sharded client share.
func TestShardMapWalk(t *testing.T) {
	const key = "session-7"
	order := rendezvousOrder(key)
	if len(order) != 3 {
		t.Fatalf("rendezvous order = %v, want all three shards", order)
	}
	// walk runs Walk with a try that answers only on shards in up,
	// recording every shard it was offered.
	walk := func(m *service.ShardMap, attempts int, up ...string) (owner string, tried []string) {
		owner = m.Walk(key, attempts, func(o string, attempt int) bool {
			if attempt != len(tried) {
				t.Errorf("try got attempt %d on its call number %d", attempt, len(tried))
			}
			tried = append(tried, o)
			for _, u := range up {
				if u == o {
					return true
				}
			}
			return false
		})
		return owner, tried
	}

	t.Run("owner answers", func(t *testing.T) {
		m := service.NewShardMap(testShards())
		owner, tried := walk(m, 3, order...)
		if owner != order[0] || len(tried) != 1 || len(m.Alive()) != 3 {
			t.Errorf("owner %q after trying %v (alive %v), want %q at once", owner, tried, m.Alive(), order[0])
		}
	})
	t.Run("dead owner skipped", func(t *testing.T) {
		m := service.NewShardMap(testShards())
		m.MarkDead(order[0])
		owner, tried := walk(m, 3, order...)
		if owner != order[1] || len(tried) != 1 {
			t.Errorf("owner %q after trying %v, want the successor %q at once", owner, tried, order[1])
		}
	})
	t.Run("failed owner marked dead and the successor tried", func(t *testing.T) {
		m := service.NewShardMap(testShards())
		owner, tried := walk(m, 3, order[2])
		if owner != order[2] || fmt.Sprint(tried) != fmt.Sprint(order) {
			t.Errorf("owner %q after trying %v, want %q after %v", owner, tried, order[2], order)
		}
		if alive := m.Alive(); len(alive) != 1 || alive[0] != order[2] {
			t.Errorf("alive after the walk = %v, want only %q", alive, order[2])
		}
	})
	t.Run("stops at the attempt bound", func(t *testing.T) {
		m := service.NewShardMap(testShards())
		owner, tried := walk(m, 2)
		if owner != "" || fmt.Sprint(tried) != fmt.Sprint(order[:2]) {
			t.Errorf("owner %q after trying %v, want none after %v", owner, tried, order[:2])
		}
		if m.Owner(key) != order[2] {
			t.Errorf("the untried shard %q did not survive the bounded walk", order[2])
		}
	})
	t.Run("no shard tried twice", func(t *testing.T) {
		// A prober revives the first owner while the second is being
		// tried; the walk must not go back to it.
		m := service.NewShardMap(testShards())
		var tried []string
		owner := m.Walk(key, 3, func(o string, attempt int) bool {
			tried = append(tried, o)
			if attempt == 1 {
				m.MarkAlive(order[0])
			}
			return false
		})
		if owner != "" || fmt.Sprint(tried) != fmt.Sprint(order[:2]) {
			t.Errorf("owner %q after trying %v, want none after %v", owner, tried, order[:2])
		}
	})
	t.Run("all dead", func(t *testing.T) {
		m := service.NewShardMap(testShards())
		for _, s := range testShards() {
			m.MarkDead(s)
		}
		if owner, tried := walk(m, 3, order...); owner != "" || len(tried) != 0 {
			t.Errorf("owner %q after trying %v, want the empty owner and no tries", owner, tried)
		}
	})
}
