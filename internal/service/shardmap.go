package service

import (
	"hash/fnv"
	"sort"
	"sync"
)

// ShardMap assigns session IDs to shards by rendezvous (highest
// random weight) hashing: every (shard, key) pair gets a pseudo-random
// score and the key belongs to the highest-scoring *live* shard.
// Rendezvous gives the two properties failover needs with no token
// rings or rebalancing state:
//
//   - deterministic: every router replica with the same shard list and
//     the same liveness view computes the same owner, so a session
//     created through one replica is found through another;
//   - minimal disruption: marking a shard dead moves only the keys it
//     owned (each to its second-highest-scoring shard); every other
//     key keeps its owner, so a failover never stampedes the healthy
//     shards with re-creates.
//
// The map is safe for concurrent use. Version increments on every
// liveness change, letting callers detect that a previously computed
// owner may be stale.
type ShardMap struct {
	mu      sync.RWMutex
	shards  []string // all configured shards, sorted, dead ones included
	dead    map[string]bool
	version int64
}

// NewShardMap builds a map over the configured shard base URLs; all
// start alive. Duplicates are dropped.
func NewShardMap(shards []string) *ShardMap {
	seen := map[string]bool{}
	m := &ShardMap{dead: map[string]bool{}}
	for _, s := range shards {
		if s != "" && !seen[s] {
			seen[s] = true
			m.shards = append(m.shards, s)
		}
	}
	sort.Strings(m.shards)
	return m
}

// score is the rendezvous weight of (shard, key): fnv64a over the pair
// with a separator no valid session ID or URL contains, pushed through
// a splitmix64-style finalizer. The finalizer matters: raw FNV of
// near-identical strings ("load-1".."load-8" against shard URLs that
// differ by one digit) produces correlated comparisons, and every key
// picks the same winner; full avalanche decorrelates them.
func score(shard, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(shard))
	h.Write([]byte{0})
	h.Write([]byte(key))
	z := h.Sum64()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Owner returns the live shard that owns key, or "" if every shard is
// dead (or the map is empty).
func (m *ShardMap) Owner(key string) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var best string
	var bestScore uint64
	for _, s := range m.shards {
		if m.dead[s] {
			continue
		}
		if sc := score(s, key); best == "" || sc > bestScore || (sc == bestScore && s < best) {
			best, bestScore = s, sc
		}
	}
	return best
}

// Walk is the one failover procedure of the routing tier, shared by its
// HTTP proxy and its frame splice: ask for key's owner, hand it to try,
// and when try reports a transport failure (false) mark that shard dead
// and move to the next owner, for at most attempts tries and never the
// same shard twice. It returns the shard that answered — try returned
// true, whether with a result or with the server's own refusal — or ""
// when the walk ran out of live shards or attempts. try runs without
// the map's lock held.
func (m *ShardMap) Walk(key string, attempts int, try func(owner string, attempt int) bool) string {
	tried := map[string]bool{}
	for attempt := 0; attempt < attempts; attempt++ {
		owner := m.Owner(key)
		if owner == "" || tried[owner] {
			break
		}
		tried[owner] = true
		if try(owner, attempt) {
			return owner
		}
		m.MarkDead(owner)
	}
	return ""
}

// MarkDead removes a shard from routing; keys it owned re-route to
// their next-highest-scoring live shard. It reports whether the call
// changed anything.
func (m *ShardMap) MarkDead(shard string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead[shard] || !m.has(shard) {
		return false
	}
	m.dead[shard] = true
	m.version++
	return true
}

// MarkAlive returns a shard to routing (e.g. after its health probe
// recovers). It reports whether the call changed anything.
func (m *ShardMap) MarkAlive(shard string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dead[shard] {
		return false
	}
	delete(m.dead, shard)
	m.version++
	return true
}

func (m *ShardMap) has(shard string) bool {
	i := sort.SearchStrings(m.shards, shard)
	return i < len(m.shards) && m.shards[i] == shard
}

// Alive returns the live shards, sorted.
func (m *ShardMap) Alive() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.shards))
	for _, s := range m.shards {
		if !m.dead[s] {
			out = append(out, s)
		}
	}
	return out
}

// Shards returns every configured shard, sorted, dead ones included.
func (m *ShardMap) Shards() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]string(nil), m.shards...)
}

// Version returns the liveness-change counter.
func (m *ShardMap) Version() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.version
}
