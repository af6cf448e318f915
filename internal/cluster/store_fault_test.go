package cluster

import (
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

// TestDiskStoreConcurrentAccess is the DiskStore half of the phase
// contract (see runPhases): one goroutine writes primaries and replicas
// and removes them, then eight read every query method at once. The
// final sweep checks each read method against Blocks().
func TestDiskStoreConcurrentAccess(t *testing.T) {
	d := NewDiskStore()
	id := func(i int) block.ID { return block.ID{RDD: i / 16, Partition: i % 16} }
	mutate := func(round int) {
		for i := round; i < round+40; i++ {
			switch i % 5 {
			case 0, 1:
				d.Put(id(i), int64(i+1))
			case 2:
				d.PutReplica(id(i+7), int64(i+1))
			case 3:
				d.Remove(id(i - 9))
			case 4:
				if i%200 == 199 {
					d.Clear()
				}
			}
		}
	}
	read := func(reader, round int) {
		for i := round + reader; i < round+80; i += 3 {
			if d.Has(id(i)) != (d.Size(id(i)) > 0) {
				t.Errorf("Has(%v) = %v with size %d", id(i), d.Has(id(i)), d.Size(id(i)))
			}
			if d.HasReplica(id(i)) && !d.Has(id(i)) {
				t.Errorf("replica of %v without a copy", id(i))
			}
		}
		if d.ReplicaLen() > d.Len() || len(d.Blocks()) != d.Len() {
			t.Errorf("%d replicas among %d blocks (%d listed)", d.ReplicaLen(), d.Len(), len(d.Blocks()))
		}
	}
	runPhases(120, 8, mutate, read)

	for _, b := range d.Blocks() {
		if !d.Has(b) || d.Size(b) == 0 {
			t.Fatalf("Blocks() listed %v, but Has = %v and Size = %d", b, d.Has(b), d.Size(b))
		}
	}
}
