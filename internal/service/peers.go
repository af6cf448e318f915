package service

import (
	"sync"
	"time"
)

// PeerConfig wires one shard into its peer group. Shards gossip
// liveness over POST /v1/peers/heartbeat; a peer silent past Deadline
// is reported dead on GET /v1/peers. That view is for operators and
// CI to read: nothing routes by it — the router and the sharded client
// each keep their own ShardMap, marking a shard dead when a probe or a
// call to it fails.
type PeerConfig struct {
	// Self is this shard's advertised base URL (how peers and clients
	// reach it). Required when Peers is non-empty.
	Self string
	// Peers are the other shards' base URLs.
	Peers []string
	// Every is the heartbeat send period; 0 means DefaultHeartbeatEvery.
	Every time.Duration
	// Deadline is how long a peer may stay silent before it is
	// considered dead; 0 means DefaultPeerDeadline.
	Deadline time.Duration
}

// Peer liveness defaults.
const (
	DefaultHeartbeatEvery = 500 * time.Millisecond
	DefaultPeerDeadline   = 2 * time.Second
)

func (c PeerConfig) normalize() PeerConfig {
	if c.Every == 0 {
		c.Every = DefaultHeartbeatEvery
	}
	if c.Deadline == 0 {
		c.Deadline = DefaultPeerDeadline
	}
	return c
}

// HeartbeatRequest is one shard announcing liveness to a peer. View
// piggybacks the sender's full liveness table (advertised URL → unix
// microseconds the sender last heard from that shard), so liveness
// knowledge gossips transitively even when two shards cannot reach
// each other directly.
type HeartbeatRequest struct {
	From string           `json:"from"`
	Seq  int64            `json:"seq"`
	View map[string]int64 `json:"view,omitempty"`
}

// HeartbeatResponse carries the receiver's merged view back.
type HeartbeatResponse struct {
	From string           `json:"from"`
	View map[string]int64 `json:"view,omitempty"`
}

// PeerStatus is one row of the liveness table.
type PeerStatus struct {
	Addr string `json:"addr"`
	// LastSeenMs is how long ago the shard last heard from this peer,
	// in milliseconds; -1 means never.
	LastSeenMs int64 `json:"lastSeenMs"`
	Alive      bool  `json:"alive"`
}

// PeersStatus is the GET /v1/peers payload: this shard's view of the
// group.
type PeersStatus struct {
	Self       string       `json:"self"`
	DeadlineMs int64        `json:"deadlineMs"`
	Peers      []PeerStatus `json:"peers"`
}

// peerTable tracks when this shard last heard from each peer, either
// directly (a heartbeat arrived) or transitively (a gossiped view
// vouched for it).
type peerTable struct {
	cfg PeerConfig
	now func() time.Time // test hook

	mu       sync.Mutex
	lastSeen map[string]time.Time
	seq      int64
}

func newPeerTable(cfg PeerConfig) *peerTable {
	t := &peerTable{cfg: cfg.normalize(), now: time.Now, lastSeen: map[string]time.Time{}}
	for _, p := range cfg.Peers {
		t.lastSeen[p] = time.Time{} // known but never heard from
	}
	return t
}

// observe records a direct sign of life from addr.
func (t *peerTable) observe(addr string) {
	if addr == "" || addr == t.cfg.Self {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if now := t.now(); now.After(t.lastSeen[addr]) {
		t.lastSeen[addr] = now
	}
}

// merge folds a gossiped view (addr → unix micro) into the table,
// keeping the freshest evidence per peer.
func (t *peerTable) merge(view map[string]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for addr, us := range view {
		if addr == t.cfg.Self {
			continue
		}
		when := time.UnixMicro(us)
		if when.After(t.lastSeen[addr]) {
			t.lastSeen[addr] = when
		}
	}
}

// view renders the table as gossip payload.
func (t *peerTable) view() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := make(map[string]int64, len(t.lastSeen)+1)
	for addr, when := range t.lastSeen {
		if !when.IsZero() {
			v[addr] = when.UnixMicro()
		}
	}
	// Vouch for ourselves: we are alive as of now.
	v[t.cfg.Self] = t.now().UnixMicro()
	return v
}

// nextSeq returns a monotonically increasing heartbeat sequence.
func (t *peerTable) nextSeq() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	return t.seq
}

// status renders the liveness table for GET /v1/peers.
func (t *peerTable) status() PeersStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	st := PeersStatus{Self: t.cfg.Self, DeadlineMs: t.cfg.Deadline.Milliseconds()}
	for _, addr := range t.cfg.Peers {
		when := t.lastSeen[addr]
		row := PeerStatus{Addr: addr, LastSeenMs: -1}
		if !when.IsZero() {
			row.LastSeenMs = now.Sub(when).Milliseconds()
			row.Alive = now.Sub(when) <= t.cfg.Deadline
		}
		st.Peers = append(st.Peers, row)
	}
	return st
}
