package cluster

import (
	"sync"
	"testing"

	"mrdspark/internal/block"
)

func TestDiskStoreReplicaSemantics(t *testing.T) {
	d := NewDiskStore()
	id := block.ID{RDD: 1, Partition: 0}

	d.PutReplica(id, 100)
	if !d.Has(id) || !d.HasReplica(id) {
		t.Fatal("replica copy not visible")
	}
	if d.ReplicaLen() != 1 || d.Len() != 1 {
		t.Errorf("len/replicaLen = %d/%d, want 1/1", d.Len(), d.ReplicaLen())
	}

	// A primary write promotes the copy; it is no longer a replica.
	d.Put(id, 100)
	if d.HasReplica(id) {
		t.Error("primary write left the copy marked replica")
	}
	if !d.Has(id) {
		t.Error("primary copy missing")
	}

	// PutReplica never downgrades a primary.
	d.PutReplica(id, 100)
	if d.HasReplica(id) {
		t.Error("PutReplica downgraded a primary copy")
	}

	d.Remove(id)
	if d.Has(id) || d.Len() != 0 {
		t.Error("Remove left the block behind")
	}
}

func TestDiskStoreClearDropsReplicas(t *testing.T) {
	d := NewDiskStore()
	d.Put(block.ID{RDD: 1}, 10)
	d.PutReplica(block.ID{RDD: 2}, 20)
	d.Clear()
	if d.Len() != 0 || d.ReplicaLen() != 0 {
		t.Errorf("Clear left %d blocks (%d replicas)", d.Len(), d.ReplicaLen())
	}
}

// TestDiskStoreConcurrentAccess exercises the mutex under -race: the
// experiments package runs simulations in parallel, and a shared-map
// DiskStore was previously a silent data race.
func TestDiskStoreConcurrentAccess(t *testing.T) {
	d := NewDiskStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := block.ID{RDD: w, Partition: i % 16}
				switch i % 5 {
				case 0:
					d.Put(id, int64(i))
				case 1:
					d.PutReplica(id, int64(i))
				case 2:
					d.Has(id)
					d.HasReplica(id)
					d.Size(id)
				case 3:
					d.Remove(id)
				case 4:
					d.Len()
					d.ReplicaLen()
				}
			}
		}(w)
	}
	wg.Wait()
}
