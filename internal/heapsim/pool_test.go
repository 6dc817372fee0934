package heapsim

import (
	"testing"

	"repro/internal/trace"
)

// poolOps drives an allocator through a small mixed workload.
type poolOp struct {
	free bool
	id   trace.ObjectID
	size int64
}

var poolScript = []poolOp{
	{id: 1, size: 100},
	{id: 2, size: 24},
	{id: 3, size: 4096},
	{free: true, id: 2},
	{id: 4, size: 24},
	{free: true, id: 1},
	{id: 5, size: 64},
	{free: true, id: 3},
	{free: true, id: 4},
	{id: 6, size: 8},
}

func runScript(t *testing.T, a Allocator) {
	t.Helper()
	for i, op := range poolScript {
		var err error
		if op.free {
			err = a.Free(op.id)
		} else {
			err = a.Alloc(op.id, op.size, op.size <= 64)
		}
		if err != nil {
			t.Fatalf("script op %d: %v", i, err)
		}
	}
}

// TestPoolSingleMemberTransparent: a one-member pool must mirror its
// member exactly — heap sizes, counts, and addresses (member 0's window
// starts at offset 0, so even Addr matches). This is the allocator-level
// half of the cluster's single-tenant identity property.
func TestPoolSingleMemberTransparent(t *testing.T) {
	bare := NewFirstFit()
	member := NewFirstFit()
	p, err := NewPool("pool:1xfirstfit", member)
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, bare)
	runScript(t, p)
	if p.HeapSize() != bare.HeapSize() {
		t.Errorf("HeapSize %d != bare %d", p.HeapSize(), bare.HeapSize())
	}
	if p.MaxHeapSize() != bare.MaxHeapSize() {
		t.Errorf("MaxHeapSize %d != bare %d", p.MaxHeapSize(), bare.MaxHeapSize())
	}
	if p.Counts() != bare.Counts() {
		t.Errorf("Counts %+v != bare %+v", p.Counts(), bare.Counts())
	}
	for _, id := range []trace.ObjectID{5, 6} {
		pa, pok := p.Addr(id)
		ba, bok := bare.Addr(id)
		if pa != ba || pok != bok {
			t.Errorf("Addr(%d) = %d,%v != bare %d,%v", id, pa, pok, ba, bok)
		}
	}
	if got := p.Name(); got != "pool:1xfirstfit" {
		t.Errorf("Name = %q", got)
	}
}

func TestPoolRoutingAndAccounting(t *testing.T) {
	p, err := NewPool("pool:2xfirstfit", NewFirstFit(), NewFirstFit())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AllocOn(0, 1, 100, false); err != nil {
		t.Fatal(err)
	}
	if err := p.AllocOn(1, 2, 200, false); err != nil {
		t.Fatal(err)
	}
	if err := p.AllocOn(1, 3, 50, true); err != nil {
		t.Fatal(err)
	}
	if p.MemberLive(0) != 100 || p.MemberLive(1) != 250 {
		t.Fatalf("MemberLive = %d/%d, want 100/250", p.MemberLive(0), p.MemberLive(1))
	}
	// Member 1's addresses land in its PoolStride window.
	a2, ok := p.Addr(2)
	if !ok || a2 < PoolStride || a2 >= 2*PoolStride {
		t.Fatalf("Addr(2) = %d,%v; want inside [%d,%d)", a2, ok, PoolStride, 2*PoolStride)
	}
	a1, ok := p.Addr(1)
	if !ok || a1 >= PoolStride {
		t.Fatalf("Addr(1) = %d,%v; want inside member 0's window", a1, ok)
	}
	// Frees route to the owning member.
	if err := p.Free(2); err != nil {
		t.Fatal(err)
	}
	if p.MemberLive(1) != 50 {
		t.Fatalf("MemberLive(1) = %d after free, want 50", p.MemberLive(1))
	}
	if _, ok := p.Addr(2); ok {
		t.Fatal("Addr(2) still live after free")
	}
	// HeapSize aggregates both members.
	if p.HeapSize() != p.MemberHeap(0)+p.MemberHeap(1) {
		t.Fatalf("HeapSize %d != member sum %d", p.HeapSize(), p.MemberHeap(0)+p.MemberHeap(1))
	}
	// Counts aggregate.
	if c := p.Counts(); c.Allocs != 3 || c.Frees != 1 {
		t.Fatalf("Counts = %d allocs / %d frees, want 3/1", c.Allocs, c.Frees)
	}
}

func TestPoolErrors(t *testing.T) {
	if _, err := NewPool("empty"); err == nil {
		t.Fatal("NewPool accepted zero members")
	}
	if _, err := NewPool("nilmember", nil); err == nil {
		t.Fatal("NewPool accepted a nil member")
	}
	p, err := NewPool("p", NewFirstFit(), NewBSD())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AllocOn(2, 1, 8, false); err == nil {
		t.Fatal("AllocOn accepted out-of-range member")
	}
	if err := p.AllocOn(-1, 1, 8, false); err == nil {
		t.Fatal("AllocOn accepted negative member")
	}
	if err := p.AllocOn(0, 1, 8, false); err != nil {
		t.Fatal(err)
	}
	// Pool-wide id uniqueness: same id on a different member is rejected.
	if err := p.AllocOn(1, 1, 8, false); err == nil {
		t.Fatal("AllocOn accepted duplicate id across members")
	}
	if err := p.Free(99); err == nil {
		t.Fatal("Free accepted unknown id")
	}
}

// TestPoolWalker: regions and spans shift into per-member windows with
// prefixed names, and every span stays inside a region of its member.
func TestPoolWalker(t *testing.T) {
	p, err := NewPool("p", NewFirstFit(), NewArena())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AllocOn(0, 1, 100, false); err != nil {
		t.Fatal(err)
	}
	if err := p.AllocOn(1, 2, 64, true); err != nil {
		t.Fatal(err)
	}
	regions := p.Regions()
	if len(regions) == 0 {
		t.Fatal("no regions")
	}
	byName := map[string]Region{}
	sawMember1 := false
	for _, r := range regions {
		byName[r.Name] = r
		if r.Base >= PoolStride && r.End <= 2*PoolStride {
			sawMember1 = true
		} else if r.End > PoolStride {
			t.Fatalf("region %q [%d,%d) straddles the window boundary", r.Name, r.Base, r.End)
		}
	}
	if !sawMember1 {
		t.Fatal("no region in member 1's window")
	}
	nspans := 0
	err = p.Walk(func(s Span) error {
		nspans++
		r, ok := byName[s.Region]
		if !ok {
			t.Fatalf("span region %q not in Regions", s.Region)
		}
		if s.Addr < r.Base || s.Addr+s.Size > r.End {
			t.Fatalf("span [%d,%d) outside region %q [%d,%d)", s.Addr, s.Addr+s.Size, s.Region, r.Base, r.End)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if nspans == 0 {
		t.Fatal("walk emitted no spans")
	}
	// Region extents sum to HeapSize, the identity the auditor proves.
	var extent int64
	for _, r := range regions {
		extent += r.End - r.Base
	}
	if extent != p.HeapSize() {
		t.Fatalf("region extent %d != HeapSize %d", extent, p.HeapSize())
	}
}

func TestPoolArenaReporting(t *testing.T) {
	p, err := NewPool("p", NewArena(), NewFirstFit())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AllocOn(0, 1, 64, true); err != nil {
		t.Fatal(err)
	}
	// One member has arenas: occupancy is that member's own figure.
	ar := NewArena()
	if err := ar.Alloc(1, 64, true); err != nil {
		t.Fatal(err)
	}
	if got, want := p.ArenaOccupancy(), ar.ArenaOccupancy(); got != want {
		t.Errorf("ArenaOccupancy = %g, want %g", got, want)
	}
	if got, want := p.PinnedArenas(), ar.PinnedArenas(); got != want {
		t.Errorf("PinnedArenas = %d, want %d", got, want)
	}
	// A pool with no arena members reports zero occupancy.
	ff, err := NewPool("ff", NewFirstFit())
	if err != nil {
		t.Fatal(err)
	}
	if got := ff.ArenaOccupancy(); got != 0 {
		t.Errorf("ffpool ArenaOccupancy = %g, want 0", got)
	}
}
