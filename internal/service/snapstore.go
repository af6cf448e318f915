package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
)

// ErrNoSnapshot is returned by SnapshotStore.Load when no snapshot
// exists for the session.
var ErrNoSnapshot = errors.New("service: no snapshot")

// SnapshotStore persists session snapshots, so a restarted server
// resumes every acknowledged session. Two servers may share one store;
// Stamp is what keeps either from serving a copy the other has
// advanced. Implementations must be safe for concurrent use.
type SnapshotStore interface {
	// Save writes (or atomically replaces) the session's snapshot and
	// returns the stamp the write left.
	Save(s *Snapshot) (stamp string, err error)
	// Load returns the session's snapshot, or ErrNoSnapshot.
	Load(sessionID string) (*Snapshot, error)
	// Stamp identifies the session's current snapshot without reading
	// it: every Save leaves a stamp different from the one it replaced,
	// and "" means no snapshot exists. A server compares it with the stamp
	// of the snapshot it last wrote or restored to learn, for the price
	// of a stat and no op-log decode, whether another server has advanced
	// the session since.
	Stamp(sessionID string) (string, error)
	// Delete removes the session's snapshot; absent is not an error.
	Delete(sessionID string) error
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
// per session, written via temp-file + rename so readers never observe
// a torn snapshot even when servers share the directory.
type DirStore struct {
	dir string
}

const snapSuffix = ".snap.json"

// NewDirStore creates the directory if needed and returns the store.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: snapshot dir: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

func (d *DirStore) path(id string) string { return filepath.Join(d.dir, id+snapSuffix) }

// Save implements SnapshotStore. The stamp is read off the temp file
// before the rename, which keeps its inode, size and mtime.
func (d *DirStore) Save(s *Snapshot) (string, error) {
	if !ValidSessionID(s.SessionID) {
		return "", fmt.Errorf("service: snapshot has unusable session ID %q", s.SessionID)
	}
	data, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(d.dir, s.SessionID+".tmp-*")
	if err != nil {
		return "", err
	}
	fail := func(err error) (string, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	fi, err := tmp.Stat()
	if err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), d.path(s.SessionID)); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return fileStamp(fi), nil
}

// fileStamp is a snapshot file's identity: inode, size and mtime. Save
// creates its temp file while the file it replaces still exists, so the
// new inode differs from the old one even when size and mtime do not.
func fileStamp(fi os.FileInfo) string {
	var ino uint64
	if st, ok := fi.Sys().(*syscall.Stat_t); ok {
		ino = st.Ino
	}
	return fmt.Sprintf("%x-%x-%x", ino, fi.Size(), fi.ModTime().UnixNano())
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

// Stamp implements SnapshotStore with one stat, never reading the file.
func (d *DirStore) Stamp(sessionID string) (string, error) {
	if !ValidSessionID(sessionID) {
		return "", nil
	}
	fi, err := os.Stat(d.path(sessionID))
	if errors.Is(err, os.ErrNotExist) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	return fileStamp(fi), nil
}

// Delete implements SnapshotStore.
func (d *DirStore) Delete(sessionID string) error {
	if !ValidSessionID(sessionID) {
		return nil
	}
	err := os.Remove(d.path(sessionID))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// MemStore is an in-memory SnapshotStore for tests (several Servers
// sharing one MemStore model a shared store without touching disk).
type MemStore struct {
	mu    sync.Mutex
	snaps map[string]memSnap
	saves uint64 // the stamp of the latest Save, store-wide
}

// memSnap is one stored snapshot and the stamp its Save left.
type memSnap struct {
	data  []byte
	stamp string
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{snaps: map[string]memSnap{}} }

// Save implements SnapshotStore; the stamp counts Saves store-wide.
func (m *MemStore) Save(s *Snapshot) (string, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.saves++
	stamp := strconv.FormatUint(m.saves, 10)
	m.snaps[s.SessionID] = memSnap{data: data, stamp: stamp}
	return stamp, nil
}

// Load implements SnapshotStore.
func (m *MemStore) Load(sessionID string) (*Snapshot, error) {
	m.mu.Lock()
	snap, ok := m.snaps[sessionID]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNoSnapshot
	}
	var s Snapshot
	if err := json.Unmarshal(snap.data, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Stamp implements SnapshotStore.
func (m *MemStore) Stamp(sessionID string) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snaps[sessionID].stamp, nil
}

// Delete implements SnapshotStore.
func (m *MemStore) Delete(sessionID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.snaps, sessionID)
	return nil
}
