package heapsim

import (
	"testing"

	"repro/internal/trace"
)

func TestCustomFastPath(t *testing.T) {
	c := NewCustom([]int64{16, 32})
	mustAlloc(t, c, 1, 16, false)
	mustAlloc(t, c, 2, 30, false)  // rounds to 32: hot
	mustAlloc(t, c, 3, 100, false) // cold: general heap
	if got := c.Counts().BSDCarves; got != 2 {
		t.Fatalf("carves = %d, want 2", got)
	}
	if c.general.LiveObjects() != 1 {
		t.Fatalf("general heap holds %d objects, want 1", c.general.LiveObjects())
	}
	a1, ok := c.Addr(1)
	if !ok || a1 < customBase {
		t.Fatalf("hot object at %d", a1)
	}
	if frac := c.FastPathFrac(); frac < 0.6 || frac > 0.7 {
		t.Fatalf("fast-path fraction %.2f, want 2/3", frac)
	}
}

func TestCustomExactReuse(t *testing.T) {
	c := NewCustom([]int64{64})
	mustAlloc(t, c, 1, 64, false)
	a1, _ := c.Addr(1)
	mustFree(t, c, 1)
	mustAlloc(t, c, 2, 64, false)
	a2, _ := c.Addr(2)
	if a1 != a2 {
		t.Fatalf("LIFO exact-size reuse failed: %d vs %d", a1, a2)
	}
	heap := c.HeapSize()
	// Churning the hot size never grows the heap.
	for i := trace.ObjectID(10); i < 1000; i++ {
		mustAlloc(t, c, i, 64, false)
		mustFree(t, c, i)
	}
	if c.HeapSize() != heap {
		t.Fatalf("hot churn grew heap from %d to %d", heap, c.HeapSize())
	}
}

func TestCustomSlabCapacity(t *testing.T) {
	c := NewCustom([]int64{64})
	// One 4KB slab holds 64 chunks of 64B.
	for i := trace.ObjectID(0); i < 64; i++ {
		mustAlloc(t, c, i, 64, false)
	}
	if got := c.slabs.HeapSize(); got != 4<<10 {
		t.Fatalf("slab region %d after 64 chunks, want 4KB", got)
	}
	mustAlloc(t, c, 100, 64, false)
	if got := c.slabs.HeapSize(); got != 8<<10 {
		t.Fatalf("slab region %d after overflow, want 8KB", got)
	}
}

func TestCustomErrors(t *testing.T) {
	c := NewCustom([]int64{16})
	if err := c.Alloc(1, 0, false); err == nil {
		t.Error("zero size accepted")
	}
	mustAlloc(t, c, 1, 16, false)
	if err := c.Alloc(1, 16, false); err == nil {
		t.Error("double alloc accepted")
	}
	if err := c.Free(9); err == nil {
		t.Error("unknown free accepted")
	}
}
