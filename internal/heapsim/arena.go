package heapsim

import (
	"repro/internal/obs"
	"repro/internal/trace"
)

// Arena simulates the paper's lifetime-predicting arena allocator (§5.1):
//
//   - A fixed set of small arenas (16 x 4KB in the paper, chosen so the
//     64KB total is twice the 32KB short-lived age) holds objects
//     predicted short-lived. Each arena has only an allocation pointer and
//     a live-object count — no per-object headers.
//   - Allocation bumps the current arena's pointer. When the arena is
//     full, all arenas are scanned for one whose count is zero; that arena
//     is reset and becomes current. If none is free the object is
//     allocated in the general heap ("as if it were long-lived").
//   - Free of an arena object just decrements its arena's count. Arena
//     membership is recognized by address, because the arena area is
//     contiguous and disjoint from the general heap.
//   - Objects not predicted short, objects larger than an arena, and
//     arena-overflow objects go to a first-fit general heap.
//
// Mispredicted long-lived objects "pollute" arenas: an arena holding one
// never reaches count zero and is never reused — the CFRAC failure mode of
// §5.2. The arenas are one pool of an arenaArea, which does the bump,
// hunt, spill and free.
type Arena struct {
	arenaArea
	pinned *obs.Gauge // nil unless a collector is attached
}

// ArenaBase is the synthetic base address of the arena area, disjoint from
// the general heap's address space (which starts at 0).
const ArenaBase = int64(1) << 40

// NewArena returns an arena allocator with the paper's 16 x 4KB
// geometry.
func NewArena() *Arena { return NewArenaGeometry(16, 4<<10) }

// NewArenaGeometry returns an arena allocator with n arenas of size
// bytes each (n must be positive) over a fresh first-fit general heap.
func NewArenaGeometry(n int, size int64) *Arena {
	a := &Arena{arenaArea: newArenaArea("arena", ArenaBase, size, n)}
	a.addPool()
	return a
}

// Observe implements Observable; the collector also attaches to the
// general fallback heap, so one snapshot covers both layers.
func (a *Arena) Observe(col *obs.Collector) {
	a.observe(col, 32)
	a.pinned = nil
	if col != nil {
		a.pinned = col.Gauge("arena.pinned")
	}
}

// Alloc implements Allocator. Objects with predictedShort true are placed
// in an arena when possible.
func (a *Arena) Alloc(id trace.ObjectID, size int64, predictedShort bool) error {
	_, placed := a.live.Get(id)
	if err := a.admit(id, size, placed); err != nil {
		return err
	}
	a.ops.PredChecks++
	if !predictedShort || size > a.size {
		return a.alloc(id, size, false)
	}
	g := a.bump(0, id, size, 0)
	if g < 0 {
		return a.spill(id, size)
	}
	if a.pinned != nil && a.arenas[g].count == 1 {
		a.pinned.Set(int64(a.PinnedArenas()))
	}
	return nil
}

// Free implements Allocator.
func (a *Arena) Free(id trace.ObjectID) error {
	loc, ok := a.live.Delete(id)
	if !ok {
		return a.free(id)
	}
	a.release(loc)
	if a.pinned != nil && a.arenas[loc.arena].count == 0 {
		a.pinned.Set(int64(a.PinnedArenas()))
	}
	return nil
}

// PinnedArenas reports how many arenas currently hold at least one live
// object — a direct measure of pollution.
func (a *Arena) PinnedArenas() int {
	n := 0
	for _, st := range a.arenas {
		if st.count > 0 {
			n++
		}
	}
	return n
}
