package service

import (
	"container/list"
	"fmt"
	"sync"
	"time"
)

// Session is one registered application: its advisor plus the
// bookkeeping the registry needs. All advisor access goes through the
// session's mutex; the registry's own lock is never held across an
// advisor call, so slow advice computations in one session never block
// another.
type Session struct {
	ID       string
	Workload string
	Created  time.Time
	// Restored marks a session rebuilt from a snapshot (server restart
	// or shard failover adoption) rather than created fresh.
	Restored bool

	mu       sync.Mutex
	advisor  *Advisor
	advances int64
	// stamp is the snapshot store's stamp of the snapshot this copy last
	// wrote or was restored from ("" before either); the server compares
	// it with the store's before serving the copy. unsaved marks a copy
	// whose last Save failed. Both are owned by the session lock.
	stamp   string
	unsaved bool
	// fold runs under the session lock at the end of every WithAdvisor
	// call: the server passes the flush of the session's obs.Fold here,
	// so the events of an operation reach the shared /metrics aggregator
	// together, when the operation is over.
	fold func()
	// cleanup runs exactly once, under the session lock, after the
	// session leaves the registry (explicit delete, LRU bound, or idle
	// sweep). The server passes the Fold's Close here — a last flush,
	// then the obs-bus detach — so a retired session's per-session
	// series stop feeding the shared /metrics aggregator.
	cleanup func()

	// retired is closed once the session has fully retired: it left the
	// registry, any in-flight advisor call finished, and cleanup ran.
	retired chan struct{}

	// lastUsed and lruElem are owned by the registry's lock.
	lastUsed time.Time
	lruElem  *list.Element
}

// WithAdvisor runs fn with the session's advisor under the session
// lock. The registry's eviction paths never interrupt a call in
// flight: a session dropped while fn runs finishes fn first and only
// then retires (see Retired).
func (s *Session) WithAdvisor(fn func(a *Advisor) error) error {
	s.mu.Lock()
	defer s.endOp()
	return fn(s.advisor)
}

// endOp ends a session operation: what it emitted folds into the shared
// aggregator, once, before the lock is released.
func (s *Session) endOp() {
	if s.fold != nil {
		s.fold()
	}
	s.mu.Unlock()
}

// Retired returns a channel closed once the session has fully retired
// after leaving the registry: any in-flight WithAdvisor call has
// completed and the session's cleanup (obs-bus detach) has run.
func (s *Session) Retired() <-chan struct{} { return s.retired }

// Advances returns how many stage advances the session has served.
func (s *Session) Advances() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.advances
}

// RegistryConfig bounds the multi-tenant session registry.
type RegistryConfig struct {
	// MaxSessions is the LRU bound: creating a session beyond it evicts
	// the least-recently-used one. 0 means DefaultMaxSessions.
	MaxSessions int
	// IdleTimeout evicts sessions untouched for this long; 0 means
	// DefaultIdleTimeout, negative disables idle eviction.
	IdleTimeout time.Duration
}

// Registry defaults.
const (
	DefaultMaxSessions = 256
	DefaultIdleTimeout = 15 * time.Minute
)

func (c RegistryConfig) normalize() RegistryConfig {
	if c.MaxSessions == 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	return c
}

// Registry is the LRU-bounded, idle-evicting session table. It hands
// out *Session values; callers serialize advisor access through the
// session's own lock.
type Registry struct {
	cfg RegistryConfig
	now func() time.Time // test hook

	mu       sync.Mutex
	sessions map[string]*Session
	lru      *list.List // front = most recently used; values are *Session
	nextID   int64
	// Evicted counts sessions removed by the LRU bound or idle sweep
	// (not explicit deletes), for /healthz.
	evictedLRU  int64
	evictedIdle int64
}

// NewRegistry builds an empty registry.
func NewRegistry(cfg RegistryConfig) *Registry {
	return &Registry{
		cfg:      cfg.normalize(),
		now:      time.Now,
		sessions: map[string]*Session{},
		lru:      list.New(),
	}
}

// Create registers a new session around the advisor, evicting the
// least-recently-used session if the registry is full. fold (nil
// allowed) runs under the session lock at the end of every WithAdvisor
// call; cleanup (nil allowed) runs once, under the session lock, when
// the session later leaves the registry by any path — the caller's
// hooks for feeding the session's observability into shared state and
// detaching it again.
func (r *Registry) Create(workloadName string, a *Advisor, fold, cleanup func()) *Session {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		r.nextID++
		id := fmt.Sprintf("s%d", r.nextID)
		if _, taken := r.sessions[id]; taken {
			continue // a client-supplied ID squatted on the counter
		}
		return r.createLocked(id, workloadName, a, fold, cleanup, false)
	}
}

// CreateWithID registers a session under a caller-chosen ID, which
// lets a client retry a create or find its session again after a
// restart. restored marks sessions rebuilt from a snapshot. It fails
// if the ID is already live.
func (r *Registry) CreateWithID(id, workloadName string, a *Advisor, fold, cleanup func(), restored bool) (*Session, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, taken := r.sessions[id]; taken {
		return nil, fmt.Errorf("service: session %q already exists", id)
	}
	return r.createLocked(id, workloadName, a, fold, cleanup, restored), nil
}

func (r *Registry) createLocked(id, workloadName string, a *Advisor, fold, cleanup func(), restored bool) *Session {
	s := &Session{
		ID:       id,
		Workload: workloadName,
		Created:  r.now(),
		Restored: restored,
		advisor:  a,
		fold:     fold,
		cleanup:  cleanup,
		retired:  make(chan struct{}),
		lastUsed: r.now(),
	}
	// A restored advisor arrives with replayed history; seed the served
	// counter so /healthz and status agree with the pre-crash session.
	// (Registry fuzzing registers advisor-less sessions; tolerate nil.)
	if a != nil {
		s.advances = int64(len(a.History()))
	}
	for len(r.sessions) >= r.cfg.MaxSessions {
		oldest := r.lru.Back()
		if oldest == nil {
			break
		}
		r.dropLocked(oldest.Value.(*Session))
		r.evictedLRU++
	}
	r.sessions[s.ID] = s
	s.lruElem = r.lru.PushFront(s)
	return s
}

// Get returns the session and marks it most recently used.
func (r *Registry) Get(id string) (*Session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	if !ok {
		return nil, false
	}
	s.lastUsed = r.now()
	r.lru.MoveToFront(s.lruElem)
	return s, true
}

// Delete removes the session; it reports whether it existed.
func (r *Registry) Delete(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	if !ok {
		return false
	}
	r.dropLocked(s)
	return true
}

// SweepIdle evicts every session idle longer than the configured
// timeout and returns how many it removed.
func (r *Registry) SweepIdle() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cfg.IdleTimeout < 0 {
		return 0
	}
	cutoff := r.now().Add(-r.cfg.IdleTimeout)
	n := 0
	for e := r.lru.Back(); e != nil; {
		s := e.Value.(*Session)
		if !s.lastUsed.Before(cutoff) {
			break // LRU order: everything further front is newer
		}
		prev := e.Prev()
		r.dropLocked(s)
		r.evictedIdle++
		n++
		e = prev
	}
	return n
}

// Sessions returns every live session, in no particular order (the
// server's drain path snapshots them one by one under their own
// locks; the registry lock is released before any session is used).
func (r *Registry) Sessions() []*Session {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		out = append(out, s)
	}
	return out
}

// Len returns the number of live sessions.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Evicted returns the cumulative LRU- and idle-eviction counts.
func (r *Registry) Evicted() (lru, idle int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evictedLRU, r.evictedIdle
}

// dropLocked unlinks the session from the registry's table and LRU
// list, then retires it asynchronously: retirement must take the
// session lock (to let an in-flight WithAdvisor call finish and to
// serialize the obs-bus detach against Emit), and the registry lock is
// never held across a session lock — a slow advice computation in the
// dropped session must not stall the whole registry.
func (r *Registry) dropLocked(s *Session) {
	delete(r.sessions, s.ID)
	r.lru.Remove(s.lruElem)
	s.lruElem = nil
	go s.retire()
}

// retire completes a dropped session's teardown: wait out any
// in-flight advisor call, run the cleanup hook, and signal Retired.
func (s *Session) retire() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cleanup != nil {
		s.cleanup()
	}
	close(s.retired)
}
