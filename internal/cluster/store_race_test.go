package cluster

import (
	"sync"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/policy"
)

// TestMemoryStoreConcurrentHammer drives one MemoryStore (and its
// DiskStore sibling) from many goroutines at once — the access pattern
// the execution engine's worker executors now produce: concurrent
// residency probes and reads racing with inserts, removals, guarded
// prefetch arrivals, and a node-kill Clear. Run under -race (CI always
// does) this pins the store-level locking; without the MemoryStore
// mutex it fails immediately on the blocks-map races.
func TestMemoryStoreConcurrentHammer(t *testing.T) {
	const (
		goroutines = 8
		opsPerG    = 4000
		nBlocks    = 64
	)
	mem := NewMemoryStore(16*MB, policy.NewLRU().NewNodePolicy(0))
	disk := NewDiskStore()

	info := func(i int) block.Info {
		return block.Info{
			ID:    block.ID{RDD: i % 8, Partition: i / 8},
			Size:  1 * MB,
			Level: block.MemoryAndDisk,
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// splitmix64 stream: deterministic per goroutine, no locks.
			x := uint64(g)*0x9E3779B97F4A7C15 + 1
			next := func() uint64 {
				x += 0x9E3779B97F4A7C15
				z := x
				z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
				z = (z ^ (z >> 27)) * 0x94D049BB133111EB
				return z ^ (z >> 31)
			}
			for i := 0; i < opsPerG; i++ {
				in := info(int(next() % nBlocks))
				switch next() % 10 {
				case 0, 1, 2:
					mem.Get(in.ID)
				case 3, 4:
					if evicted, ok := mem.Put(in); ok {
						for _, v := range evicted {
							disk.Put(v.ID, v.Size)
						}
					}
				case 5:
					mem.PutGuarded(in, func(block.ID) bool { return next()%2 == 0 })
				case 6:
					mem.Contains(in.ID)
					mem.Free()
					mem.Len()
				case 7:
					mem.Remove(in.ID)
					disk.Remove(in.ID)
				case 8:
					mem.Blocks()
				default:
					if next()%64 == 0 {
						mem.Clear() // the node-kill wipe
					} else {
						disk.Has(in.ID)
						mem.Used()
					}
				}
			}
		}(g)
	}
	wg.Wait()

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
