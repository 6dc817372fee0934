package heapsim

import (
	"testing"
	"testing/quick"

	"repro/internal/trace"
	"repro/internal/xrand"
)

func mustAlloc(t *testing.T, a Allocator, id trace.ObjectID, size int64, short bool) {
	t.Helper()
	if err := a.Alloc(id, size, short); err != nil {
		t.Fatalf("Alloc(%d, %d): %v", id, size, err)
	}
}

func mustFree(t *testing.T, a Allocator, id trace.ObjectID) {
	t.Helper()
	if err := a.Free(id); err != nil {
		t.Fatalf("Free(%d): %v", id, err)
	}
}

// --- FirstFit ---

func TestFirstFitBasic(t *testing.T) {
	ff := NewFirstFit()
	mustAlloc(t, ff, 1, 100, false)
	if ff.HeapSize() != 8<<10 {
		t.Fatalf("heap size %d, want one 8KB chunk", ff.HeapSize())
	}
	a1, ok := ff.Addr(1)
	if !ok || a1 != 8 {
		t.Fatalf("object 1 at %d (ok=%v), want payload at 8", a1, ok)
	}
	mustAlloc(t, ff, 2, 100, false)
	a2, _ := ff.Addr(2)
	if a2 <= a1 {
		t.Fatalf("object 2 at %d, want above object 1 at %d", a2, a1)
	}
	mustFree(t, ff, 1)
	mustFree(t, ff, 2)
	if err := ff.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ff.freeBlocks != 1 {
		t.Fatalf("after freeing everything, free blocks = %d, want 1 (full coalesce)", ff.freeBlocks)
	}
	if ff.LiveObjects() != 0 {
		t.Fatalf("LiveObjects = %d", ff.LiveObjects())
	}
}

func TestFirstFitErrors(t *testing.T) {
	ff := NewFirstFit()
	if err := ff.Alloc(1, 0, false); err == nil {
		t.Error("zero-size alloc accepted")
	}
	mustAlloc(t, ff, 1, 16, false)
	if err := ff.Alloc(1, 16, false); err == nil {
		t.Error("double alloc accepted")
	}
	if err := ff.Free(99); err == nil {
		t.Error("free of unknown object accepted")
	}
	mustFree(t, ff, 1)
	if err := ff.Free(1); err == nil {
		t.Error("double free accepted")
	}
}

func TestFirstFitReuseAfterFree(t *testing.T) {
	// Fill one 8KB chunk exactly (8 x 1024 including headers), so there
	// is no wilderness left. Then a freed hole must be reused by the
	// wrap-around search without growing the heap.
	ff := NewFirstFit()
	for i := trace.ObjectID(0); i < 8; i++ {
		mustAlloc(t, ff, i, 1016, false)
	}
	heap := ff.MaxHeapSize()
	if heap != 8<<10 {
		t.Fatalf("heap %d, want exactly one chunk", heap)
	}
	a3, _ := ff.Addr(3)
	mustFree(t, ff, 3)
	mustAlloc(t, ff, 100, 1016, false)
	if ff.MaxHeapSize() != heap {
		t.Fatalf("heap grew from %d to %d despite available hole", heap, ff.MaxHeapSize())
	}
	a100, _ := ff.Addr(100)
	if a100 != a3 {
		t.Fatalf("object 100 at %d, want reuse of hole at %d", a100, a3)
	}
}

func TestFirstFitRoverPolicies(t *testing.T) {
	// Default A4' policy: the rover stays where the last allocation
	// happened, so a hole behind it is NOT immediately reused.
	ff := NewFirstFit()
	mustAlloc(t, ff, 1, 1000, false)
	mustAlloc(t, ff, 2, 1000, false)
	mustAlloc(t, ff, 3, 1000, false)
	a2, _ := ff.Addr(2)
	mustFree(t, ff, 2)
	mustAlloc(t, ff, 4, 1000, false)
	if a4, _ := ff.Addr(4); a4 == a2 {
		t.Fatal("A4' policy unexpectedly reused the hole behind the rover")
	}
}

func TestFirstFitRoverFollowsFree(t *testing.T) {
	// K&R variant: free leaves the rover at the freed block, so a
	// same-size allocation immediately reuses it instead of carving the
	// wilderness.
	ff := NewFirstFit()
	ff.RoverOnFree = true
	mustAlloc(t, ff, 1, 1000, false)
	mustAlloc(t, ff, 2, 1000, false)
	mustAlloc(t, ff, 3, 1000, false) // keeps the hole away from the wilderness
	a2, _ := ff.Addr(2)
	mustFree(t, ff, 2)
	mustAlloc(t, ff, 4, 1000, false)
	a4, _ := ff.Addr(4)
	if a4 != a2 {
		t.Fatalf("object 4 at %d, want immediate reuse of the hole at %d", a4, a2)
	}
}

func TestFirstFitCoalescing(t *testing.T) {
	ff := NewFirstFit()
	for i := trace.ObjectID(0); i < 8; i++ {
		mustAlloc(t, ff, i, 1000, false)
	}
	// Free alternating, then the rest: full coalescing must leave one
	// free block spanning everything.
	for i := trace.ObjectID(0); i < 8; i += 2 {
		mustFree(t, ff, i)
	}
	if err := ff.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ff.freeBlocks < 4 {
		t.Fatalf("alternating frees left %d free blocks, want >= 4", ff.freeBlocks)
	}
	for i := trace.ObjectID(1); i < 8; i += 2 {
		mustFree(t, ff, i)
	}
	if ff.freeBlocks != 1 {
		t.Fatalf("free blocks = %d after freeing all, want 1", ff.freeBlocks)
	}
	c := ff.Counts()
	if c.FFCoalesces == 0 {
		t.Fatal("no coalesces counted")
	}
}

func TestFirstFitExtension(t *testing.T) {
	ff := NewFirstFit()
	// 3 x 3000 > 8192: must extend at least twice.
	for i := trace.ObjectID(0); i < 3; i++ {
		mustAlloc(t, ff, i, 3000, false)
	}
	if ff.HeapSize() < 9000 {
		t.Fatalf("heap %d too small for 9000 live bytes", ff.HeapSize())
	}
	if ff.HeapSize()%(8<<10) != 0 {
		t.Fatalf("heap %d not a multiple of the 8KB chunk", ff.HeapSize())
	}
	if ff.Counts().FFExtends < 2 {
		t.Fatalf("extends = %d, want >= 2", ff.Counts().FFExtends)
	}
}

func TestFirstFitLargeObject(t *testing.T) {
	ff := NewFirstFit()
	mustAlloc(t, ff, 1, 100<<10, false) // 100KB: spans many chunks
	if ff.HeapSize() < 100<<10 {
		t.Fatalf("heap %d < object size", ff.HeapSize())
	}
	if err := ff.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	mustFree(t, ff, 1)
	if err := ff.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFirstFitRovingPointer(t *testing.T) {
	// With a roving pointer, successive small allocations after a free
	// do not always restart from the lowest hole: allocate a row, free
	// two holes, allocate twice; the second allocation should land in
	// the second hole (the rover moved past the first).
	ff := NewFirstFit()
	for i := trace.ObjectID(0); i < 8; i++ {
		mustAlloc(t, ff, i, 1016, false) // fills the chunk exactly
	}
	h1, _ := ff.Addr(1)
	h3, _ := ff.Addr(3)
	mustFree(t, ff, 1)
	mustFree(t, ff, 3)
	mustAlloc(t, ff, 10, 1016, false)
	mustAlloc(t, ff, 11, 1016, false)
	a10, _ := ff.Addr(10)
	a11, _ := ff.Addr(11)
	got := map[int64]bool{a10: true, a11: true}
	if !got[h1] || !got[h3] {
		t.Fatalf("holes %d,%d; allocations landed at %d,%d", h1, h3, a10, a11)
	}
}

func TestFirstFitProbesCounted(t *testing.T) {
	ff := NewFirstFit()
	mustAlloc(t, ff, 1, 16, false)
	c := ff.Counts()
	if c.FFProbes == 0 && c.FFExtends == 0 {
		t.Fatal("no search activity recorded")
	}
	if c.Allocs != 1 || c.FFAllocs != 1 {
		t.Fatalf("counts %+v", c)
	}
}

func TestFirstFitQuickRandomWorkload(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		ff := NewFirstFit()
		live := map[trace.ObjectID]bool{}
		var next trace.ObjectID
		for i := 0; i < 400; i++ {
			if len(live) > 0 && r.Bool(0.45) {
				for id := range live {
					if ff.Free(id) != nil {
						return false
					}
					delete(live, id)
					break
				}
			} else {
				size := r.Range(1, 3000)
				if ff.Alloc(next, size, false) != nil {
					return false
				}
				live[next] = true
				next++
			}
		}
		return ff.CheckInvariants() == nil && ff.LiveObjects() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- BSD ---

func TestBSDBucketFor(t *testing.T) {
	b := NewBSD()
	cases := map[int64]int{
		1: 4, 8: 4, 9: 5, 24: 5, 25: 6, 56: 6, 120: 7, 1000: 10, 4088: 12,
	}
	for size, want := range cases {
		if got := b.bucketFor(size); got != want {
			t.Errorf("bucketFor(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestBSDReuseSameBucket(t *testing.T) {
	b := NewBSD()
	mustAlloc(t, b, 1, 100, false)
	a1, _ := b.Addr(1)
	mustFree(t, b, 1)
	mustAlloc(t, b, 2, 120, false) // same 128B bucket
	a2, _ := b.Addr(2)
	if a1 != a2 {
		t.Fatalf("LIFO bucket reuse failed: %d vs %d", a1, a2)
	}
	heap := b.HeapSize()
	mustFree(t, b, 2)
	if b.HeapSize() != heap {
		t.Fatal("BSD heap shrank")
	}
}

func TestBSDNeverCoalesces(t *testing.T) {
	b := NewBSD()
	mustAlloc(t, b, 1, 100, false) // 128 bucket
	mustFree(t, b, 1)
	// A larger request must carve fresh space even though 128B is free.
	heap := b.HeapSize()
	mustAlloc(t, b, 2, 200, false) // 256 bucket
	if b.HeapSize() == heap && len(b.classes[8].free) == 0 {
		t.Fatal("256B allocation served without carving or a free chunk")
	}
}

func TestBSDCarveFillsList(t *testing.T) {
	b := NewBSD()
	mustAlloc(t, b, 1, 20, false) // 32B bucket; page carve = 128 chunks
	if got := len(b.classes[5].free); got != 127 {
		t.Fatalf("free list after carve has %d chunks, want 127", got)
	}
	if b.HeapSize() != 4<<10 {
		t.Fatalf("heap %d, want one 4KB page", b.HeapSize())
	}
	// 127 more allocations consume the page with no growth.
	for i := trace.ObjectID(2); i < 129; i++ {
		mustAlloc(t, b, i, 20, false)
	}
	if b.HeapSize() != 4<<10 {
		t.Fatalf("heap grew to %d within one page's chunks", b.HeapSize())
	}
	mustAlloc(t, b, 200, 20, false)
	if b.HeapSize() != 8<<10 {
		t.Fatalf("heap %d after second carve, want 8KB", b.HeapSize())
	}
}

func TestBSDLargeObject(t *testing.T) {
	b := NewBSD()
	mustAlloc(t, b, 1, 6000, false) // 8KB bucket: 2 pages
	if b.HeapSize() != 8<<10 {
		t.Fatalf("heap %d, want 8KB", b.HeapSize())
	}
	mustFree(t, b, 1)
	mustAlloc(t, b, 2, 5000, false)
	if b.HeapSize() != 8<<10 {
		t.Fatal("same-bucket reuse failed for large object")
	}
}

func TestBSDErrors(t *testing.T) {
	b := NewBSD()
	if err := b.Alloc(1, -5, false); err == nil {
		t.Error("negative size accepted")
	}
	mustAlloc(t, b, 1, 8, false)
	if err := b.Alloc(1, 8, false); err == nil {
		t.Error("double alloc accepted")
	}
	if err := b.Free(7); err == nil {
		t.Error("unknown free accepted")
	}
}

// --- Arena ---

func TestArenaBumpAllocation(t *testing.T) {
	a := NewArena()
	mustAlloc(t, a, 1, 100, true)
	mustAlloc(t, a, 2, 100, true)
	a1, ok1 := a.Addr(1)
	a2, ok2 := a.Addr(2)
	if !ok1 || !ok2 {
		t.Fatal("arena objects have no address")
	}
	if a1 < ArenaBase || a2 != a1+100 {
		t.Fatalf("bump addresses %d, %d", a1, a2)
	}
	c := a.Counts()
	if c.ArenaAllocs != 2 || c.ArenaBytes != 200 {
		t.Fatalf("counts %+v", c)
	}
	// The general heap is untouched.
	if a.general.HeapSize() != 0 {
		t.Fatal("general heap grew for arena allocations")
	}
	if a.HeapSize() != 16*(4<<10) {
		t.Fatalf("heap size %d, want 64KB arena area", a.HeapSize())
	}
}

func TestArenaUnpredictedGoesGeneral(t *testing.T) {
	a := NewArena()
	mustAlloc(t, a, 1, 100, false)
	if a.Counts().ArenaAllocs != 0 {
		t.Fatal("unpredicted object placed in arena")
	}
	if a.Counts().GeneralBytes != 100 {
		t.Fatalf("GeneralBytes = %d", a.Counts().GeneralBytes)
	}
	addr, ok := a.Addr(1)
	if !ok || addr >= ArenaBase {
		t.Fatalf("general object at %d", addr)
	}
}

func TestArenaOversizedGoesGeneral(t *testing.T) {
	a := NewArena() // 4KB arenas
	mustAlloc(t, a, 1, 6144, true)
	c := a.Counts()
	if c.ArenaAllocs != 0 || c.GeneralBytes != 6144 {
		t.Fatalf("6KB object not sent to general heap: %+v", c)
	}
	// Not a fallback — it was never arena-eligible.
	if c.ArenaFallbacks != 0 {
		t.Fatal("oversized object counted as fallback")
	}
}

func TestArenaReuseWhenEmpty(t *testing.T) {
	a := NewArenaGeometry(2, 1000)
	// Fill arena 0, free everything, fill again: must reset, not fall
	// back.
	for i := trace.ObjectID(0); i < 10; i++ {
		mustAlloc(t, a, i, 100, true)
	}
	// Arena 0 full (10x100); next alloc scans and finds arena 1.
	mustAlloc(t, a, 10, 100, true)
	if a.Counts().ArenaResets != 1 {
		t.Fatalf("resets = %d, want 1", a.Counts().ArenaResets)
	}
	for i := trace.ObjectID(0); i < 11; i++ {
		mustFree(t, a, i)
	}
	// Fill far beyond two arenas' capacity: constant reuse, no fallback.
	for i := trace.ObjectID(100); i < 160; i++ {
		mustAlloc(t, a, i, 100, true)
		mustFree(t, a, i)
	}
	c := a.Counts()
	if c.ArenaFallbacks != 0 {
		t.Fatalf("fallbacks = %d with fully-dying objects", c.ArenaFallbacks)
	}
	if c.ArenaAllocs != 71 {
		t.Fatalf("arena allocs = %d, want 71", c.ArenaAllocs)
	}
}

func TestArenaPollution(t *testing.T) {
	a := NewArenaGeometry(2, 1000)
	// Two immortal mispredictions pin both arenas...
	mustAlloc(t, a, 1, 900, true)
	mustAlloc(t, a, 2, 900, true) // fills arena 0? no: 900+900 > 1000, so scan to arena 1
	if a.PinnedArenas() != 2 {
		t.Fatalf("pinned = %d, want 2", a.PinnedArenas())
	}
	// ...so further predicted-short objects fall back to the heap.
	mustAlloc(t, a, 3, 500, true)
	c := a.Counts()
	if c.ArenaFallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", c.ArenaFallbacks)
	}
	if addr, _ := a.Addr(3); addr >= ArenaBase {
		t.Fatal("fallback object placed in arena")
	}
	// Scan steps were counted for the failed hunt.
	if c.ArenaScanSteps < 2 {
		t.Fatalf("scan steps = %d", c.ArenaScanSteps)
	}
	// Freeing one pollutant unpins its arena and restores arena service.
	mustFree(t, a, 1)
	mustAlloc(t, a, 4, 500, true)
	if a.Counts().ArenaAllocs != 3 {
		t.Fatalf("arena allocs = %d, want 3", a.Counts().ArenaAllocs)
	}
}

func TestArenaFreeDecrementsOnly(t *testing.T) {
	a := NewArena()
	mustAlloc(t, a, 1, 100, true)
	mustFree(t, a, 1)
	c := a.Counts()
	if c.ArenaFrees != 1 {
		t.Fatalf("arena frees = %d", c.ArenaFrees)
	}
	if _, ok := a.Addr(1); ok {
		t.Fatal("freed object still addressable")
	}
	if err := a.Free(1); err == nil {
		t.Fatal("double free accepted")
	}
}

func TestArenaMixedWorkloadConsistency(t *testing.T) {
	r := xrand.New(77)
	a := NewArena()
	live := map[trace.ObjectID]bool{}
	var next trace.ObjectID
	for i := 0; i < 5000; i++ {
		if len(live) > 0 && r.Bool(0.48) {
			for id := range live {
				mustFree(t, a, id)
				delete(live, id)
				break
			}
		} else {
			mustAlloc(t, a, next, r.Range(8, 5000), r.Bool(0.7))
			live[next] = true
			next++
		}
	}
	c := a.Counts()
	if c.Allocs != int64(next) {
		t.Fatalf("allocs %d, want %d", c.Allocs, next)
	}
	if c.ArenaBytes+c.GeneralBytes == 0 {
		t.Fatal("no bytes accounted")
	}
	if err := a.general.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every live object must be addressable, freed ones must not.
	for id := range live {
		if _, ok := a.Addr(id); !ok {
			t.Fatalf("live object %d has no address", id)
		}
	}
}

func BenchmarkFirstFitChurn(b *testing.B) {
	ff := NewFirstFit()
	r := xrand.New(1)
	var id trace.ObjectID
	for i := 0; i < b.N; i++ {
		if err := ff.Alloc(id, r.Range(8, 256), false); err != nil {
			b.Fatal(err)
		}
		if id >= 64 {
			if err := ff.Free(id - 64); err != nil {
				b.Fatal(err)
			}
		}
		id++
	}
}

func BenchmarkArenaChurn(b *testing.B) {
	a := NewArena()
	r := xrand.New(1)
	var id trace.ObjectID
	for i := 0; i < b.N; i++ {
		if err := a.Alloc(id, r.Range(8, 256), true); err != nil {
			b.Fatal(err)
		}
		if id >= 64 {
			if err := a.Free(id - 64); err != nil {
				b.Fatal(err)
			}
		}
		id++
	}
}

func TestSiteArenaBasics(t *testing.T) {
	sa := NewSiteArena()
	mustAllocAt := func(id trace.ObjectID, size int64, site uint64) {
		t.Helper()
		if err := sa.AllocAt(id, size, site); err != nil {
			t.Fatal(err)
		}
	}
	mustAllocAt(1, 100, 7)
	mustAllocAt(2, 100, 7)
	mustAllocAt(3, 100, 9)
	if got := sa.ArenaArea(); got != 2*2*(4<<10) {
		t.Fatalf("arena area %d, want two 2x4KB pools", got)
	}
	a1, _ := sa.Addr(1)
	a2, _ := sa.Addr(2)
	a3, _ := sa.Addr(3)
	if a2 != a1+100 {
		t.Fatalf("same-site bump broken: %d, %d", a1, a2)
	}
	if a3 >= a1 && a3 < a1+2*(4<<10) {
		t.Fatalf("different sites share a pool: %d vs %d", a1, a3)
	}
	mustFree(t, sa, 1)
	mustFree(t, sa, 2)
	mustFree(t, sa, 3)
	if sa.Counts().ArenaFrees != 3 {
		t.Fatalf("arena frees %d", sa.Counts().ArenaFrees)
	}
}

func TestSiteArenaPollutionIsolation(t *testing.T) {
	sa := NewSiteArenaGeometry(2, 1000, 64)
	// Site 1 pollutes: immortal objects pin both of its arenas.
	if err := sa.AllocAt(1, 900, 1); err != nil {
		t.Fatal(err)
	}
	if err := sa.AllocAt(2, 900, 1); err != nil {
		t.Fatal(err)
	}
	// Further site-1 allocations fall back...
	if err := sa.AllocAt(3, 500, 1); err != nil {
		t.Fatal(err)
	}
	if sa.Counts().ArenaFallbacks != 1 {
		t.Fatalf("fallbacks %d, want 1", sa.Counts().ArenaFallbacks)
	}
	// ...but site 2 keeps bump-allocating indefinitely.
	for i := trace.ObjectID(100); i < 300; i++ {
		if err := sa.AllocAt(i, 500, 2); err != nil {
			t.Fatal(err)
		}
		if err := sa.Free(i); err != nil {
			t.Fatal(err)
		}
	}
	c := sa.Counts()
	if c.ArenaFallbacks != 1 {
		t.Fatalf("pollution leaked across sites: %d fallbacks", c.ArenaFallbacks)
	}
	if sa.PinnedArenas() != 1 {
		t.Fatalf("pinned pools %d, want 1", sa.PinnedArenas())
	}
}

func TestSiteArenaHashBucketsBounded(t *testing.T) {
	sa := NewSiteArenaGeometry(1, 1000, 2)
	for site := uint64(0); site < 5; site++ {
		if err := sa.AllocAt(trace.ObjectID(site), 100, site); err != nil {
			t.Fatal(err)
		}
	}
	// Five sites hash into at most two pools; nobody falls back.
	if got := sa.ArenaArea(); got != 2*1000 {
		t.Fatalf("arena area %d, want bound at 2 pools", got)
	}
	if sa.Counts().ArenaFallbacks != 0 {
		t.Fatalf("fallbacks %d, want 0 under hashing", sa.Counts().ArenaFallbacks)
	}
	if sa.Counts().ArenaAllocs != 5 {
		t.Fatalf("arena allocs %d, want 5", sa.Counts().ArenaAllocs)
	}
}

func TestSiteArenaOversized(t *testing.T) {
	sa := NewSiteArena()
	if err := sa.AllocAt(1, 6144, 3); err != nil {
		t.Fatal(err)
	}
	if sa.Counts().ArenaAllocs != 0 {
		t.Fatal("oversized object entered a site arena")
	}
	if sa.Counts().ArenaFallbacks != 0 {
		t.Fatal("oversized object miscounted as fallback")
	}
	mustFree(t, sa, 1)
}

// TestFFBlockPoolRecycles checks the block pool's two promises: records
// released by coalescing are handed back by later splits (no unbounded
// growth), and a recycled record arrives fully zeroed.
func TestFFBlockPoolRecycles(t *testing.T) {
	var p ffBlockPool
	a := p.get()
	a.addr, a.size, a.free = 1, 2, true
	a.aPrev, a.fNext = a, a
	p.put(a)
	b := p.get()
	if b != a {
		t.Fatal("released record not reused LIFO")
	}
	if *b != (ffBlock{}) {
		t.Fatalf("recycled record not zeroed: %+v", *b)
	}
	// Slabs grow geometrically and are consumed record by record.
	seen := map[*ffBlock]bool{b: true}
	for i := 0; i < 10_000; i++ {
		nb := p.get()
		if seen[nb] {
			t.Fatalf("fresh get returned a live record after %d gets", i)
		}
		seen[nb] = true
	}
	// A churn loop through the allocator itself must keep the structures
	// sound while blocks recycle underneath it.
	ff := NewFirstFit()
	for i := 0; i < 2000; i++ {
		id := trace.ObjectID(i)
		if err := ff.Alloc(id, int64(16+i%512), false); err != nil {
			t.Fatal(err)
		}
		if i%3 != 0 {
			if err := ff.Free(id); err != nil {
				t.Fatal(err)
			}
		}
		if i%500 == 0 {
			if err := ff.CheckInvariants(); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
	}
	if err := ff.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
