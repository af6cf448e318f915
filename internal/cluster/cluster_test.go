package cluster

import (
	"math/rand"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/policy"
)

func TestConfigValidate(t *testing.T) {
	good := Main()
	if err := good.Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
	bad := []Config{
		{Name: "x", Nodes: 0, CoresPerNode: 1, CacheBytes: 1, DiskBytesPerSec: 1, NetBytesPerSec: 1},
		{Name: "x", Nodes: 1, CoresPerNode: 0, CacheBytes: 1, DiskBytesPerSec: 1, NetBytesPerSec: 1},
		{Name: "x", Nodes: 1, CoresPerNode: 1, CacheBytes: 0, DiskBytesPerSec: 1, NetBytesPerSec: 1},
		{Name: "x", Nodes: 1, CoresPerNode: 1, CacheBytes: 1, DiskBytesPerSec: 0, NetBytesPerSec: 1},
		{Name: "x", Nodes: 1, CoresPerNode: 1, CacheBytes: 1, DiskBytesPerSec: 1, NetBytesPerSec: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPresetsMatchTable4(t *testing.T) {
	m := Main()
	if m.Nodes != 25 || m.CoresPerNode != 4 {
		t.Errorf("Main = %d nodes, %d cores; Table 4 says 25/4", m.Nodes, m.CoresPerNode)
	}
	l := LRC()
	if l.Nodes != 20 || l.CoresPerNode != 2 {
		t.Errorf("LRC = %d/%d; Table 4 says 20/2", l.Nodes, l.CoresPerNode)
	}
	mt := MemTune()
	if mt.Nodes != 6 || mt.CoresPerNode != 8 {
		t.Errorf("MemTune = %d/%d; Table 4 says 6/8", mt.Nodes, mt.CoresPerNode)
	}
	// Network ordering per Table 4: MemTune (1 Gbps) > Main (500) > LRC (450).
	if !(mt.NetBytesPerSec > m.NetBytesPerSec && m.NetBytesPerSec > l.NetBytesPerSec) {
		t.Error("network bandwidth ordering violates Table 4")
	}
}

func TestWithCacheAndTotal(t *testing.T) {
	c := Main().WithCache(128 * MB)
	if c.CacheBytes != 128*MB {
		t.Errorf("WithCache = %d", c.CacheBytes)
	}
	if Main().CacheBytes == 128*MB {
		t.Error("WithCache mutated the receiver")
	}
	if c.TotalCache() != 128*MB*25 {
		t.Errorf("TotalCache = %d", c.TotalCache())
	}
}

func bid(rdd, part int) block.ID { return block.ID{RDD: rdd, Partition: part} }

func info(rdd, part int, size int64) block.Info {
	return block.Info{ID: bid(rdd, part), Size: size, Level: block.MemoryAndDisk}
}

func newLRUStore(capacity int64) *MemoryStore {
	return NewMemoryStore(capacity, policy.NewLRU().NewNodePolicy(0))
}

func TestMemoryStorePutGetRemove(t *testing.T) {
	s := newLRUStore(10)
	if s.Get(bid(1, 0)) {
		t.Error("Get on empty store")
	}
	ev, ok := s.Put(info(1, 0, 4))
	if !ok || len(ev) != 0 {
		t.Fatalf("Put = %v, %v", ev, ok)
	}
	if !s.Contains(bid(1, 0)) || !s.Get(bid(1, 0)) {
		t.Error("block not resident after Put")
	}
	if s.Used() != 4 || s.Free() != 6 || s.Len() != 1 {
		t.Errorf("accounting: used=%d free=%d len=%d", s.Used(), s.Free(), s.Len())
	}
	if got, ok := s.Remove(bid(1, 0)); !ok || got != info(1, 0, 4) {
		t.Errorf("Remove = %v, %v; want the block as it was put", got, ok)
	}
	if _, ok := s.Remove(bid(1, 0)); ok {
		t.Error("double Remove succeeded")
	}
	if s.Used() != 0 {
		t.Errorf("used after remove = %d", s.Used())
	}
}

func TestMemoryStoreEvictsLRUUnderPressure(t *testing.T) {
	s := newLRUStore(10)
	s.Put(info(1, 0, 4))
	s.Put(info(2, 0, 4))
	s.Get(bid(1, 0)) // 2 is now LRU
	ev, ok := s.Put(info(3, 0, 4))
	if !ok {
		t.Fatal("Put failed")
	}
	if len(ev) != 1 || ev[0].ID != bid(2, 0) {
		t.Errorf("evicted %v, want rdd_2_0", ev)
	}
}

func TestMemoryStoreRejectsOversized(t *testing.T) {
	s := newLRUStore(10)
	if _, ok := s.Put(info(1, 0, 11)); ok {
		t.Error("oversized block accepted")
	}
	s.Put(info(2, 0, 10))
	if _, ok := s.Put(info(3, 0, 10)); !ok {
		t.Error("exact-fit replacement failed")
	}
}

func TestMemoryStoreResidentReinsertIsTouch(t *testing.T) {
	s := newLRUStore(10)
	s.Put(info(1, 0, 4))
	s.Put(info(2, 0, 4))
	s.Put(info(1, 0, 4)) // touch: 2 becomes LRU
	if s.Used() != 8 {
		t.Errorf("used after re-insert = %d, want 8", s.Used())
	}
	ev, _ := s.Put(info(3, 0, 4))
	if len(ev) != 1 || ev[0].ID != bid(2, 0) {
		t.Errorf("evicted %v, want rdd_2_0 (re-insert must refresh recency)", ev)
	}
}

func TestMemoryStorePutFailsWhenNothingEvictable(t *testing.T) {
	// A policy that refuses to name victims (here: empty resident set
	// seen through a filter that always rejects) must fail the Put.
	s := NewMemoryStore(10, refuseAll{})
	s.blocks.Put(bid(9, 9), info(9, 9, 10))
	s.used = 10
	if _, ok := s.Put(info(1, 0, 4)); ok {
		t.Error("Put succeeded without space or victims")
	}
}

// refuseAll is a policy that never yields a victim.
type refuseAll struct{}

func (refuseAll) OnAdd(block.ID)                              {}
func (refuseAll) OnAccess(block.ID)                           {}
func (refuseAll) OnRemove(block.ID)                           {}
func (refuseAll) Victim(func(block.ID) bool) (block.ID, bool) { return block.ID{}, false }

func TestPutGuardedAllAllowed(t *testing.T) {
	s := newLRUStore(10)
	s.Put(info(1, 0, 5))
	s.Put(info(2, 0, 5))
	ev, ok := s.PutGuarded(info(3, 0, 7), func(block.ID) bool { return true })
	if !ok || len(ev) != 2 {
		t.Fatalf("guarded put = %v, %v", ev, ok)
	}
	if !s.Contains(bid(3, 0)) || s.Used() != 7 {
		t.Errorf("store state wrong: used=%d", s.Used())
	}
}

func TestPutGuardedAbortsWithoutPartialEviction(t *testing.T) {
	s := newLRUStore(10)
	s.Put(info(1, 0, 5))
	s.Put(info(2, 0, 5))
	// Allow evicting rdd 1 but not rdd 2: needs both, so it must
	// abort and leave everything resident.
	ev, ok := s.PutGuarded(info(3, 0, 7), func(v block.ID) bool { return v.RDD == 1 })
	if ok || len(ev) != 0 {
		t.Fatalf("guarded put should abort: %v, %v", ev, ok)
	}
	if !s.Contains(bid(1, 0)) || !s.Contains(bid(2, 0)) {
		t.Error("abort evicted blocks")
	}
}

func TestPutGuardedResidentAndOversized(t *testing.T) {
	s := newLRUStore(10)
	s.Put(info(1, 0, 5))
	if _, ok := s.PutGuarded(info(1, 0, 5), func(block.ID) bool { return false }); !ok {
		t.Error("guarded re-insert of resident block failed")
	}
	if _, ok := s.PutGuarded(info(2, 0, 11), func(block.ID) bool { return true }); ok {
		t.Error("guarded put of oversized block succeeded")
	}
}

func TestClearEmptiesStore(t *testing.T) {
	s := newLRUStore(10)
	s.Put(info(1, 0, 4))
	s.Put(info(2, 0, 4))
	s.Clear()
	if s.Len() != 0 || s.Used() != 0 {
		t.Errorf("after Clear: len=%d used=%d", s.Len(), s.Used())
	}
	if _, ok := s.Put(info(3, 0, 10)); !ok {
		t.Error("store unusable after Clear")
	}
}

func TestDiskStore(t *testing.T) {
	d := NewDiskStore()
	if d.Has(bid(1, 0)) {
		t.Error("empty disk has block")
	}
	d.Put(bid(1, 0), 42)
	if !d.Has(bid(1, 0)) || d.Size(bid(1, 0)) != 42 || d.Len() != 1 {
		t.Error("disk put/get broken")
	}
	d.Remove(bid(1, 0))
	if d.Has(bid(1, 0)) {
		t.Error("remove failed")
	}
	d.Put(bid(2, 0), 1)
	d.Clear()
	if d.Len() != 0 {
		t.Error("clear failed")
	}
}

// TestStoreOccupancyInvariant is a property test: under random
// operations with any of the simple policies, occupancy never exceeds
// capacity and the byte accounting matches the resident set exactly.
func TestStoreOccupancyInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	factories := []policy.Factory{policy.NewLRU(), policy.NewFIFO(), policy.NewLFU()}
	for trial := 0; trial < 60; trial++ {
		capacity := int64(16 + rng.Intn(64))
		s := NewMemoryStore(capacity, factories[trial%len(factories)].NewNodePolicy(0))
		for op := 0; op < 500; op++ {
			id := bid(rng.Intn(6), rng.Intn(4))
			size := int64(1 + rng.Intn(20))
			switch rng.Intn(5) {
			case 0, 1, 2:
				s.Put(block.Info{ID: id, Size: size})
			case 3:
				s.Get(id)
			case 4:
				s.Remove(id)
			}
			if s.Used() > capacity {
				t.Fatalf("trial %d: used %d > capacity %d", trial, s.Used(), capacity)
			}
			var sum int64
			for _, rid := range s.Blocks() {
				if !s.Contains(rid) {
					t.Fatalf("trial %d: Blocks() lists non-resident %v", trial, rid)
				}
				held, _ := s.blocks.Get(rid)
				sum += held.Size
			}
			if sum != s.Used() {
				t.Fatalf("trial %d: accounting drift: sum %d != used %d", trial, sum, s.Used())
			}
		}
	}
}

// TestPutAllocatesNothing: once warm, an insert that evicts allocates
// no object — not a filter closure per victim search, not a result
// slice per eviction. These were 41 % of the objects of an advisory
// call.
func TestPutAllocatesNothing(t *testing.T) {
	s := NewMemoryStore(4*MB, policy.NewLRU().NewNodePolicy(0))
	next := 0
	put := func() {
		evicted, ok := s.Put(block.Info{ID: block.ID{RDD: 1, Partition: next % 8}, Size: MB})
		if !ok || (next >= 4 && len(evicted) != 1) {
			t.Fatalf("put %d: ok %v, evicted %v; want one eviction once the store is full", next, ok, evicted)
		}
		next++
	}
	for next < 8 { // fill the store, size its result slice, grow the policy's list
		put()
	}
	if n := testing.AllocsPerRun(100, put); n != 0 {
		t.Errorf("a Put that evicts one block under LRU allocates %v objects; want 0", n)
	}
}

// TestPutResultValidUntilNextInsert pins the contract of the slice Put,
// PutGuarded and PutPrefetch return: it is the store's own, good until
// the store's next insert and no longer. What a caller read from it
// before that insert is what was evicted; an insert that evicts again
// may hand back the same memory with other victims in it.
func TestPutResultValidUntilNextInsert(t *testing.T) {
	s := NewMemoryStore(2*MB, policy.NewLRU().NewNodePolicy(0))
	blk := func(p int) block.Info { return block.Info{ID: block.ID{RDD: 1, Partition: p}, Size: MB} }
	s.Put(blk(0))
	s.Put(blk(1))

	first, ok := s.Put(blk(2))
	if !ok || len(first) != 1 || first[0].ID != blk(0).ID {
		t.Fatalf("third insert evicted %v (ok %v); want the oldest block, %v", first, ok, blk(0).ID)
	}
	// Reads that touch nothing, and removals, leave the result alone.
	s.Get(blk(1).ID)
	s.Contains(blk(2).ID)
	s.Remove(blk(1).ID)
	if first[0].ID != blk(0).ID {
		t.Fatalf("a read or a Remove rewrote a Put's result: %v", first)
	}
	done := first[0] // the caller is done with the slice: it keeps a copy

	s.Put(blk(3)) // fits in the space Remove freed: evicts nothing
	second, ok := s.PutGuarded(blk(4), func(block.ID) bool { return true })
	if !ok || len(second) != 1 || second[0].ID != blk(2).ID {
		t.Fatalf("fifth insert evicted %v (ok %v); want %v", second, ok, blk(2).ID)
	}
	if &first[0] != &second[0] {
		t.Errorf("the second evicting insert did not reuse the first one's result slice")
	}
	if done.ID != blk(0).ID {
		t.Errorf("the caller's copy changed: %v", done)
	}
}

// pickyLRU is LRU with a say over prefetch arrivals: it lets a prefetch
// displace only the victims allow accepts, which takes PutPrefetch down
// its guarded path.
type pickyLRU struct {
	policy.Policy
	allow func(block.ID) bool
}

func (p pickyLRU) AllowPrefetchEviction(_ block.Info, victim block.ID) bool { return p.allow(victim) }

// TestStoreKeepsThePrefetchLedger drives a store with random demand
// inserts, prefetch arrivals, reads, removals and wipes beside a model
// that marks each landed prefetch by hand. After every operation the
// store's ledger, its unread set and the mark on every block it hands
// back must equal the model's — with a plain policy (arrivals evict
// freely) and an arbitrated one (arrivals can be refused).
func TestStoreKeepsThePrefetchLedger(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		var pol policy.Policy = policy.NewLRU().NewNodePolicy(0)
		if trial%2 == 1 {
			pol = pickyLRU{pol, func(block.ID) bool { return rng.Intn(3) > 0 }}
		}
		s := NewMemoryStore(int64(16+rng.Intn(48)), pol)
		unread := map[block.ID]bool{}
		var want PrefetchLedger
		left := func(v block.Info) {
			if v.Unread != unread[v.ID] {
				t.Fatalf("trial %d: %v left with Unread=%v, model says %v", trial, v.ID, v.Unread, unread[v.ID])
			}
			if unread[v.ID] {
				want.Wasted++
				delete(unread, v.ID)
			}
		}
		for op := 0; op < 600; op++ {
			in := block.Info{ID: bid(rng.Intn(6), rng.Intn(4)), Size: int64(1 + rng.Intn(12)), Unread: rng.Intn(2) == 0}
			switch rng.Intn(8) {
			case 0, 1:
				evicted, _ := s.Put(in) // a caller's Unread is not the store's mark
				for _, v := range evicted {
					left(v)
				}
			case 2, 3, 4:
				was := s.Contains(in.ID)
				evicted, ok := s.PutPrefetch(in)
				for _, v := range evicted {
					left(v)
				}
				if ok && !was {
					want.Landed++
					unread[in.ID] = true
				}
			case 5:
				if s.Get(in.ID) && unread[in.ID] {
					want.Used++
					delete(unread, in.ID)
				}
			case 6:
				if v, ok := s.Remove(in.ID); ok {
					left(v)
				}
			case 7:
				if rng.Intn(10) == 0 {
					s.Clear()
					want.Wasted += int64(len(unread))
					unread = map[block.ID]bool{}
				}
			}
			if s.Prefetch != want || want.Pending() != int64(len(unread)) {
				t.Fatalf("trial %d op %d: ledger %+v, model %+v with %d unread", trial, op, s.Prefetch, want, len(unread))
			}
			for rdd := 0; rdd < 6; rdd++ {
				for part := 0; part < 4; part++ {
					if id := bid(rdd, part); s.Unread(id) != unread[id] {
						t.Fatalf("trial %d op %d: Unread(%v) = %v, model says %v", trial, op, id, s.Unread(id), unread[id])
					}
				}
			}
		}
	}
}
