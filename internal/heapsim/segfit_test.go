package heapsim

import (
	"testing"

	"repro/internal/trace"
)

// TestSegFitClassTable pins the chunk geometry: smallest fitting class
// for small requests, page-rounded exact spans above the last class.
func TestSegFitClassTable(t *testing.T) {
	s := NewSegFit()
	cases := []struct {
		size, chunk int64
	}{
		{1, 16},    // 1+8 -> 16
		{8, 16},    // boundary: 8+8 == 16
		{9, 32},    // 9+8 -> 32
		{24, 32},   // 24+8 == 32
		{100, 112}, // 100+8 -> 112
		{120, 128},
		{1000, 1024},     // 1000+8 -> last class
		{1016, 1024},     // 1016+8 == 1024, last class exactly
		{1017, 4096},     // first large request: page-rounded
		{8000, 8192},     // 8000+8 -> two pages
		{4096 - 8, 4096}, // exactly one page with header
		{4096, 8192},     // 4096+8 spills to the next page
	}
	for _, tc := range cases {
		if got := s.classes[s.classFor(tc.size)].chunk; got != tc.chunk {
			t.Errorf("chunk for %d = %d, want %d", tc.size, got, tc.chunk)
		}
	}
}

// TestSegFitCarveAndReuse: a carve fills the class list, frees push back
// LIFO, and the heap grows only on refills.
func TestSegFitCarveAndReuse(t *testing.T) {
	s := NewSegFit()
	if err := s.Alloc(1, 40, false); err != nil { // 40+8 -> class 48
		t.Fatal(err)
	}
	if got := s.HeapSize(); got != 4096 {
		t.Fatalf("HeapSize after first carve = %d, want 4096", got)
	}
	if got := s.Counts().SegCarves; got != 1 {
		t.Fatalf("SegCarves = %d, want 1", got)
	}
	// 4096/48 = 85 chunks; 84 remain free after one alloc.
	if got := len(s.classes[s.classFor(40)].free); got != 84 {
		t.Fatalf("free chunks = %d, want 84", got)
	}
	a1, _ := s.Addr(1)
	if err := s.Free(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Alloc(2, 33, false); err != nil { // same class 48
		t.Fatal(err)
	}
	a2, _ := s.Addr(2)
	if a1 != a2 {
		t.Errorf("LIFO reuse: object 2 at %d, freed chunk was at %d", a2, a1)
	}
	if got := s.HeapSize(); got != 4096 {
		t.Errorf("reuse grew the heap to %d", got)
	}
	// The 16-byte tail (4096 - 85*48) must be walked as a free span so
	// the region tiles.
	var tail int64 = -1
	if err := s.Walk(func(sp Span) error {
		if sp.Free && sp.Size == 16 {
			tail = sp.Addr
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tail != 85*48 {
		t.Errorf("slab tail at %d, want %d", tail, 85*48)
	}
}

// TestSegFitLargeClasses: each page-rounded large chunk size gets its own
// class in first-use order, not a class indexed by its size (a
// half-terabyte request would otherwise allocate a table proportional to
// it), and a freed large chunk is reused LIFO.
func TestSegFitLargeClasses(t *testing.T) {
	s := NewSegFit()
	const big = int64(1) << 39          // half of maxRequest
	mustAlloc(t, s, 1, big, false)      // big+8 -> big+4096
	mustAlloc(t, s, 2, big+4096, false) // big+4104 -> big+8192
	if c1, c2 := s.classFor(big), s.classFor(big+4096); c1 == c2 {
		t.Fatalf("both large requests in class %d", c1)
	}
	if got, want := len(s.classes), len(segClasses)+2; got != want {
		t.Fatalf("%d classes after two large sizes, want %d", got, want)
	}
	if got, want := s.HeapSize(), (big+4096)+(big+8192); got != want {
		t.Fatalf("HeapSize = %d, want %d", got, want)
	}
	a1, _ := s.Addr(1)
	mustFree(t, s, 1)
	mustAlloc(t, s, 3, big+100, false) // big+108 -> big+4096, object 1's chunk
	if a3, _ := s.Addr(3); a3 != a1 {
		t.Errorf("large reuse: object 3 at %d, freed chunk was at %d", a3, a1)
	}
	if got := s.Counts().SegCarves; got != 2 {
		t.Errorf("SegCarves = %d, want 2", got)
	}
	if got, want := s.HeapSize(), (big+4096)+(big+8192); got != want {
		t.Errorf("reuse grew the heap to %d, want %d", got, want)
	}
}

// TestSegFitLayoutTiles proves live + free + tail spans tile the region
// exactly after a mixed workload, per the Tiled contract the auditor
// enforces.
func TestSegFitLayoutTiles(t *testing.T) {
	s := NewSegFit()
	sizes := []int64{1, 24, 100, 300, 1016, 2000, 5000, 40, 40, 40}
	for i, sz := range sizes {
		if err := s.Alloc(trace.ObjectID(i), sz, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{1, 3, 5, 8} {
		if err := s.Free(trace.ObjectID(id)); err != nil {
			t.Fatal(err)
		}
	}
	var spans []Span
	if err := s.Walk(func(sp Span) error { spans = append(spans, sp); return nil }); err != nil {
		t.Fatal(err)
	}
	var covered int64
	seen := make(map[int64]bool)
	for _, sp := range spans {
		if seen[sp.Addr] {
			t.Fatalf("two spans at address %d", sp.Addr)
		}
		seen[sp.Addr] = true
		covered += sp.Size
	}
	if covered != s.HeapSize() {
		t.Errorf("spans cover %d bytes, HeapSize is %d", covered, s.HeapSize())
	}
	reg := s.Regions()
	if len(reg) != 1 || !reg[0].Tiled || reg[0].Coalesced || reg[0].Header != 8 {
		t.Errorf("region contract = %+v", reg)
	}
}
