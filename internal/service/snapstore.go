package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
)

// ErrNoSnapshot is returned by SnapshotStore.Load when no snapshot
// exists for the session.
var ErrNoSnapshot = errors.New("service: no snapshot")

// SnapshotStore persists session snapshots, so a restarted server
// resumes every acknowledged session. One server owns a store, so its
// live copy of a session is always the latest state; the store is read
// back only for a session the server does not hold. Implementations must
// be safe for concurrent use.
type SnapshotStore interface {
	// Save writes (or atomically replaces) the session's snapshot.
	Save(s *Snapshot) error
	// Load returns the session's snapshot, or ErrNoSnapshot.
	Load(sessionID string) (*Snapshot, error)
	// Delete removes the session's snapshot and reports whether there
	// was one; absent is not an error.
	Delete(sessionID string) (bool, error)
}

// sessionIDPattern is the shape of session IDs that may name snapshot
// files (and that clients may supply at create time).
var sessionIDPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// ValidSessionID reports whether id is safe to use as a session key:
// nonempty, bounded, and free of path or header metacharacters.
func ValidSessionID(id string) bool {
	return sessionIDPattern.MatchString(id) && id != "." && id != ".."
}

// DirStore is a SnapshotStore over a local directory: one JSON file
// per session, written via temp-file + rename so a reader never observes
// a torn snapshot. The store holds an exclusive lock on the directory
// from NewDirStore to Close, so one server owns it.
type DirStore struct {
	dir  string
	lock *os.File // <dir>/.lock, flocked while the store is open
}

const snapSuffix = ".snap.json"

// NewDirStore creates the directory if needed, takes its lock and
// returns the store. A directory another open store holds — in this
// process or another — is an error naming it. The kernel drops the lock
// when its holder dies, so the successor of a killed server opens the
// directory at once.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: snapshot dir: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, ".lock"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: snapshot dir: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("service: snapshot dir %s is held by another server", dir)
		}
		return nil, fmt.Errorf("service: snapshot dir %s: lock: %w", dir, err)
	}
	return &DirStore{dir: dir, lock: lock}, nil
}

// Close releases the directory's lock; the store must not be used after.
func (d *DirStore) Close() error { return d.lock.Close() }

func (d *DirStore) path(id string) string { return filepath.Join(d.dir, id+snapSuffix) }

// Save implements SnapshotStore.
func (d *DirStore) Save(s *Snapshot) error {
	if !ValidSessionID(s.SessionID) {
		return fmt.Errorf("service: snapshot has unusable session ID %q", s.SessionID)
	}
	data, err := json.Marshal(s)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(d.dir, s.SessionID+".tmp-*")
	if err != nil {
		return err
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), d.path(s.SessionID)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Load implements SnapshotStore.
func (d *DirStore) Load(sessionID string) (*Snapshot, error) {
	if !ValidSessionID(sessionID) {
		return nil, ErrNoSnapshot
	}
	data, err := os.ReadFile(d.path(sessionID))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoSnapshot
	}
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("service: corrupt snapshot %q: %w", sessionID, err)
	}
	return &s, nil
}

// Delete implements SnapshotStore.
func (d *DirStore) Delete(sessionID string) (bool, error) {
	if !ValidSessionID(sessionID) {
		return false, nil
	}
	err := os.Remove(d.path(sessionID))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	return err == nil, err
}

// MemStore is an in-memory SnapshotStore for tests (a second Server on
// the same MemStore models a restart on the same directory without
// touching disk).
type MemStore struct {
	mu    sync.Mutex
	snaps map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{snaps: map[string][]byte{}} }

// Save implements SnapshotStore.
func (m *MemStore) Save(s *Snapshot) error {
	data, err := json.Marshal(s)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snaps[s.SessionID] = data
	return nil
}

// Load implements SnapshotStore.
func (m *MemStore) Load(sessionID string) (*Snapshot, error) {
	m.mu.Lock()
	data, ok := m.snaps[sessionID]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNoSnapshot
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Delete implements SnapshotStore.
func (m *MemStore) Delete(sessionID string) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.snaps[sessionID]
	delete(m.snaps, sessionID)
	return ok, nil
}
