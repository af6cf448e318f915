package cluster

import (
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/fault"
	"mrdspark/internal/policy"
)

// runPhases is the stores' concurrency contract as the execution engine
// exercises it: the calling goroutine mutates, then hands a read phase
// to long-lived reader goroutines over unbuffered channels and waits
// for every one to report back before it mutates again. The channel
// operations are the only synchronization — the stores hold no lock —
// so under -race this fails as soon as a read method writes (a count
// array grown inside Has, say) or a mutation escapes its phase.
func runPhases(rounds, readers int, mutate func(round int), read func(reader, round int)) {
	work := make([]chan int, readers)
	done := make(chan struct{})
	for r := range work {
		work[r] = make(chan int)
		go func(r int) {
			for round := range work[r] {
				read(r, round)
				done <- struct{}{}
			}
		}(r)
	}
	for round := 0; round < rounds; round++ {
		mutate(round)
		for _, ch := range work {
			ch <- round
		}
		for range work {
			<-done
		}
	}
	for _, ch := range work {
		close(ch)
	}
}

// TestMemoryStoreConcurrentHammer alternates a burst of mutations from
// one goroutine — inserts, guarded prefetch arrivals, removals, the
// node-kill Clear — with eight goroutines probing the store (and its
// DiskStore sibling) at once, the pattern of the engine's master and
// worker executors. New RDD ids keep appearing, so the per-RDD counts
// keep growing between read phases.
func TestMemoryStoreConcurrentHammer(t *testing.T) {
	const (
		rounds   = 200
		readers  = 8
		mutates  = 40
		reads    = 200
		nBlocks  = 64
		capacity = 16
	)
	mem := NewMemoryStore(capacity*MB, policy.NewLRU().NewNodePolicy(0))
	disk := NewDiskStore()

	info := func(round int, i uint64) block.Info {
		// The RDD range widens with the round: early rounds probe RDDs
		// no store has seen yet.
		return block.Info{
			ID:    block.ID{RDD: int(i%8) + round/8, Partition: int(i % nBlocks / 8)},
			Size:  1 * MB,
			Level: block.MemoryAndDisk,
		}
	}

	rng := fault.NewRNG(1)
	mutate := func(round int) {
		for i := 0; i < mutates; i++ {
			in := info(round, rng.Uint64())
			switch rng.Uint64() % 8 {
			case 0, 1, 2:
				if evicted, ok := mem.Put(in); ok {
					for _, v := range evicted {
						disk.Put(v.ID, v.Size)
					}
				}
			case 3:
				mem.Get(in.ID)
			case 4:
				mem.PutGuarded(in, func(block.ID) bool { return rng.Uint64()%2 == 0 })
			case 5:
				mem.Remove(in.ID)
				disk.Remove(in.ID)
			case 6:
				disk.PutReplica(in.ID, in.Size)
			default:
				if rng.Uint64()%32 == 0 {
					mem.Clear() // the node-kill wipe
					disk.Clear()
				}
			}
		}
	}
	read := func(reader, round int) {
		rng := fault.NewRNG(int64(reader)<<32 | int64(round)) // one stream per goroutine: no locks
		for _, id := range mem.Blocks() {
			if !mem.Contains(id) {
				t.Errorf("Blocks() returned non-resident %v", id)
			}
		}
		for i := 0; i < reads; i++ {
			id := info(round+16, rng.Uint64()).ID
			mem.Contains(id)
			disk.Has(id)
			disk.HasReplica(id)
			disk.Size(id)
		}
		if mem.Used()+mem.Free() != mem.Capacity() || mem.Len() > capacity {
			t.Errorf("used %d + free %d over %d blocks, capacity %d", mem.Used(), mem.Free(), mem.Len(), mem.Capacity())
		}
	}
	runPhases(rounds, readers, mutate, read)

	// The store must still be internally consistent after the storm:
	// used bytes equal the sum of resident block sizes.
	var sum int64
	for _, id := range mem.Blocks() {
		if !mem.Contains(id) {
			t.Fatalf("Blocks() returned non-resident %v", id)
		}
		sum += 1 * MB
	}
	if got := mem.Used(); got != sum {
		t.Fatalf("used bytes %d, but resident blocks sum to %d", got, sum)
	}
	if mem.Used() > mem.Capacity() {
		t.Fatalf("used %d exceeds capacity %d", mem.Used(), mem.Capacity())
	}
}
