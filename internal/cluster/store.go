package cluster

import (
	"fmt"

	"mrdspark/internal/block"
	"mrdspark/internal/policy"
)

// MemoryStore is one node's storage-memory pool (Spark's MemoryStore):
// a byte-capacity-bounded set of blocks whose evictions are decided by
// the attached policy. It is the component every cache policy
// ultimately drives.
//
// The store holds no lock. Every mutation — and every policy callback,
// which only store methods make — comes from one goroutine: the
// simulator, or the advisor's boundary procedure, which the execution
// engine runs on its master between task waves. The engine's worker
// goroutines only read (Contains, through the advisor's Resident)
// during a wave, and the dispatch channels that start and end a wave
// order those reads against the master's writes. The read methods
// therefore write nothing: a store may be read from many goroutines at
// once as long as no mutation runs beside them.
type MemoryStore struct {
	capacity int64
	used     int64
	blocks   block.Map[block.Info]
	pol      policy.Policy
	arb      policy.PrefetchArbiter // pol's say over prefetch arrivals; nil when it has none

	// incoming is the block the insert in progress is making room for and
	// evicted the victims it has chosen so far — the slice the insert
	// returns. What an insert hands the policy are closures over these
	// two fields, bound once in NewMemoryStore, so an insert allocates
	// nothing however many blocks it evicts.
	incoming    block.Info
	evicted     []block.Info
	notIncoming func(block.ID) bool // Put's victim filter
	unplanned   func(block.ID) bool // PutGuarded's: nor a victim already planned
	arbAllows   func(block.ID) bool // PutPrefetch's guard: arb lets incoming displace the victim

	// Prefetch is the store's prefetch ledger (DESIGN §4). A host that
	// replaces a store carries the old one's ledger over.
	Prefetch PrefetchLedger
}

// PrefetchLedger counts what became of the blocks PutPrefetch landed. A
// landed block carries the store's mark (block.Info.Unread) until its
// first Get counts it used or it leaves unread — evicted, removed or
// cleared — and is counted wasted: each mark is set once and cleared
// once, so the blocks still marked are Pending.
type PrefetchLedger struct{ Landed, Used, Wasted int64 }

// Pending returns the landed blocks still resident and unread.
func (l PrefetchLedger) Pending() int64 { return l.Landed - l.Used - l.Wasted }

// NewMemoryStore creates a store with the given capacity driven by the
// given per-node policy.
func NewMemoryStore(capacity int64, pol policy.Policy) *MemoryStore {
	s := &MemoryStore{capacity: capacity, pol: pol}
	s.arb, _ = pol.(policy.PrefetchArbiter)
	// Put's victims have left the policy by the time it looks for the
	// next one, so its filter has nothing to remember. PutGuarded's are
	// only planned and must be skipped: by a scan of the plan, which
	// stays short — guarded inserts are prefetch arrivals, and the
	// arbiter ends most plans at the first victim.
	s.notIncoming = func(v block.ID) bool { return v != s.incoming.ID }
	s.unplanned = func(v block.ID) bool {
		for i := range s.evicted {
			if s.evicted[i].ID == v {
				return false
			}
		}
		return v != s.incoming.ID
	}
	s.arbAllows = func(victim block.ID) bool { return s.arb.AllowPrefetchEviction(s.incoming, victim) }
	return s
}

// Capacity returns the store's byte capacity.
func (s *MemoryStore) Capacity() int64 { return s.capacity }

// Used returns the bytes currently occupied.
func (s *MemoryStore) Used() int64 { return s.used }

// Free returns the unoccupied bytes.
func (s *MemoryStore) Free() int64 { return s.capacity - s.used }

// Len returns the number of resident blocks.
func (s *MemoryStore) Len() int { return s.blocks.Len() }

// Contains reports residency without touching policy state.
func (s *MemoryStore) Contains(id block.ID) bool { return s.blocks.Has(id) }

// Get reports a read: on a hit the policy's recency/accounting hooks
// fire and Get returns true. The first read of a prefetched block
// settles it as used (Prefetch.Used moves across the call).
func (s *MemoryStore) Get(id block.ID) bool {
	info, ok := s.blocks.Get(id)
	if !ok {
		return false
	}
	if info.Unread {
		info.Unread = false
		s.blocks.Put(id, info)
		s.Prefetch.Used++
	}
	s.pol.OnAccess(id)
	return true
}

// Put inserts the block, evicting victims chosen by the policy until
// it fits. It returns the evicted blocks and whether the insert
// succeeded; a block larger than the whole store, or one that cannot
// fit because every resident block is protected, is rejected (Spark
// likewise refuses to cache oversized blocks). Re-inserting a resident
// block is a no-op touch.
//
// The evicted slice — here and from PutGuarded and PutPrefetch — is the
// store's own: it is valid until the store's next Put, PutGuarded or
// PutPrefetch, which reuses it. A caller that needs the victims longer
// copies them. A victim with Unread set was a prefetch nothing read.
func (s *MemoryStore) Put(info block.Info) (evicted []block.Info, ok bool) {
	info.Unread = false // the mark is PutPrefetch's to set
	if s.Contains(info.ID) {
		s.pol.OnAccess(info.ID)
		return nil, true
	}
	if info.Size > s.capacity {
		return nil, false
	}
	s.incoming, s.evicted = info, s.evicted[:0]
	for s.used+info.Size > s.capacity {
		victim, found := s.pol.Victim(s.notIncoming)
		if !found {
			// Roll back nothing: evictions already performed stand
			// (Spark frees the space it reclaimed); the insert fails.
			return s.evicted, false
		}
		vInfo, resident := s.blocks.Get(victim)
		if !resident {
			panic(fmt.Sprintf("cluster: policy chose non-resident victim %v", victim))
		}
		s.drop(vInfo)
		s.evicted = append(s.evicted, vInfo)
	}
	s.add(info)
	return s.evicted, true
}

// PutGuarded inserts like Put, but first plans the full victim set and
// aborts — evicting nothing — unless every victim passes allow. It is
// the arrival path for arbitrated prefetches: a prefetch should not
// displace blocks the policy considers at least as valuable.
func (s *MemoryStore) PutGuarded(info block.Info, allow func(victim block.ID) bool) (evicted []block.Info, ok bool) {
	info.Unread = false
	if s.Contains(info.ID) {
		s.pol.OnAccess(info.ID)
		return nil, true
	}
	if info.Size > s.capacity {
		return nil, false
	}
	s.incoming, s.evicted = info, s.evicted[:0]
	for freed := s.capacity - s.used; freed < info.Size; {
		victim, found := s.pol.Victim(s.unplanned)
		if !found || !allow(victim) {
			return nil, false
		}
		vInfo, _ := s.blocks.Get(victim)
		s.evicted = append(s.evicted, vInfo)
		freed += vInfo.Size
	}
	for _, vInfo := range s.evicted {
		s.drop(vInfo)
	}
	s.add(info)
	return s.evicted, true
}

// PutPrefetch is the arrival path of a prefetched block. Arbitrated
// policies (the MRD CacheMonitor) veto arrivals whose evictions would
// displace blocks at least as urgent as the incoming one, evicting
// nothing; other policies take the paper's fully aggressive Put. A
// block that lands — was not resident, and was accepted — enters the
// prefetch ledger marked unread.
func (s *MemoryStore) PutPrefetch(info block.Info) (evicted []block.Info, ok bool) {
	resident := s.Contains(info.ID)
	if s.arb == nil {
		evicted, ok = s.Put(info)
	} else {
		evicted, ok = s.PutGuarded(info, s.arbAllows)
	}
	if ok && !resident {
		info.Unread = true
		s.blocks.Put(info.ID, info)
		s.Prefetch.Landed++
	}
	return evicted, ok
}

// Remove drops the block without policy-initiated victim selection
// (purge orders, failure injection). It returns the block as the store
// held it and whether it was resident.
func (s *MemoryStore) Remove(id block.ID) (block.Info, bool) {
	info, ok := s.blocks.Get(id)
	if ok {
		s.drop(info)
	}
	return info, ok
}

// Clear empties the store (node failure); the unread prefetches it held
// are wasted.
func (s *MemoryStore) Clear() {
	s.blocks.Each(func(id block.ID, _ block.Info) { s.pol.OnRemove(id) })
	s.Prefetch.Wasted += s.Prefetch.Pending()
	s.blocks.Clear()
	s.used = 0
}

func (s *MemoryStore) add(info block.Info) {
	s.blocks.Put(info.ID, info)
	s.used += info.Size
	s.pol.OnAdd(info.ID)
}

func (s *MemoryStore) drop(info block.Info) {
	if info.Unread {
		s.Prefetch.Wasted++
	}
	s.blocks.Delete(info.ID)
	s.used -= info.Size
	s.pol.OnRemove(info.ID)
}

// Blocks returns a snapshot of resident block IDs (test helper; order
// unspecified).
func (s *MemoryStore) Blocks() []block.ID { return ids(&s.blocks) }

// Unread reports whether the block is resident and a prefetch no read
// has touched: one of the ledger's pending blocks.
func (s *MemoryStore) Unread(id block.ID) bool {
	info, _ := s.blocks.Get(id)
	return info.Unread
}

// ids lists a table's keys, in its slot order.
func ids[V any](m *block.Map[V]) []block.ID {
	out := make([]block.ID, 0, m.Len())
	m.Each(func(id block.ID, _ V) { out = append(out, id) })
	return out
}

// DiskStore is one node's local-disk block set: spilled cache blocks,
// HDFS-resident source data, and — under replication — replica copies
// of blocks homed on other nodes. Capacity is not modeled (the paper's
// nodes have 200 GB disks, never a constraint); bandwidth is charged
// by the simulator's device queues. Like MemoryStore it is one
// block.Map and holds no lock: one goroutine mutates it, and the
// execution engine's workers read it (through the advisor's OnDisk)
// only while no mutation runs. Most Has calls are the MRD manager's, at
// every stage boundary, about blocks the disk does not hold: a miss
// costs one multiply and one word read, so nothing stands in front of
// the table.
type DiskStore struct {
	blocks block.Map[diskEntry]
}

// diskEntry is one on-disk copy: its size and whether it is a replica
// of a block homed on another node.
type diskEntry struct {
	size    int64
	replica bool
}

// NewDiskStore creates an empty disk store.
func NewDiskStore() *DiskStore { return &DiskStore{} }

// Has reports whether any copy of the block's bytes — primary or
// replica — is on this disk.
func (d *DiskStore) Has(id block.ID) bool { return d.blocks.Has(id) }

// HasReplica reports whether this disk holds a replica copy of the
// block (a copy whose home node is elsewhere).
func (d *DiskStore) HasReplica(id block.ID) bool {
	e, _ := d.blocks.Get(id)
	return e.replica
}

// Put records a primary copy of the block on disk. Putting a block
// that was a replica promotes it to primary.
func (d *DiskStore) Put(id block.ID, size int64) { d.blocks.Put(id, diskEntry{size: size}) }

// PutReplica records a replica copy (replication of a block homed on
// another node). A primary copy is never downgraded.
func (d *DiskStore) PutReplica(id block.ID, size int64) {
	if e, ok := d.blocks.Get(id); ok && !e.replica {
		return
	}
	d.blocks.Put(id, diskEntry{size: size, replica: true})
}

// Size returns the block's on-disk size, or 0 if absent.
func (d *DiskStore) Size(id block.ID) int64 {
	e, _ := d.blocks.Get(id)
	return e.size
}

// Remove drops the block (any copy) from disk.
func (d *DiskStore) Remove(id block.ID) { d.blocks.Delete(id) }

// Clear empties the disk (node failure takes local data with it,
// replica copies included).
func (d *DiskStore) Clear() { d.blocks.Clear() }

// Len returns the number of blocks on disk, replicas included.
func (d *DiskStore) Len() int { return d.blocks.Len() }

// Blocks returns the IDs of every block on disk (replicas included),
// in no particular order. Callers sort as needed.
func (d *DiskStore) Blocks() []block.ID { return ids(&d.blocks) }

// ReplicaLen returns the number of replica copies on disk.
func (d *DiskStore) ReplicaLen() int {
	n := 0
	d.blocks.Each(func(_ block.ID, e diskEntry) {
		if e.replica {
			n++
		}
	})
	return n
}
