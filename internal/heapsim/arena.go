package heapsim

import (
	"fmt"

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
// §5.2.
type Arena struct {
	fallback
	arenaSize int64
	arenas    []arenaState
	current   int
	where     objIndex[arenaLoc] // arena objects only
	obs       *arenaObs          // nil unless a collector is attached
}

// arenaObs caches resolved metric handles for the hot paths.
type arenaObs struct {
	col       *obs.Collector
	scanLen   *obs.Histogram // arenas examined per overflow hunt (linear)
	allocSize *obs.Histogram // arena-placed sizes (log2)
	resets    *obs.Counter
	fallbacks *obs.Counter
	pinned    *obs.Gauge
}

// arenaLoc records where in the arena area an object was bump-allocated.
type arenaLoc struct {
	idx  int
	off  int64
	size int64 // requested bytes, for layout audits
}

// ArenaBase is the synthetic base address of the arena area, disjoint from
// the general heap's address space (which starts at 0).
const ArenaBase = int64(1) << 40

type arenaState struct {
	used  int64
	count int64
}

// NewArena returns an arena allocator with the paper's 16 x 4KB
// geometry.
func NewArena() *Arena { return NewArenaGeometry(16, 4<<10) }

// NewArenaGeometry returns an arena allocator with n arenas of size
// bytes each (n must be positive) over a fresh first-fit general heap.
func NewArenaGeometry(n int, size int64) *Arena {
	return &Arena{fallback: newFallback("arena"), arenaSize: size, arenas: make([]arenaState, n)}
}

// area is the arena area's extent in bytes.
func (a *Arena) area() int64 { return int64(len(a.arenas)) * a.arenaSize }

// Observe implements Observable; the collector also attaches to the
// general fallback heap, so one snapshot covers both layers.
func (a *Arena) Observe(col *obs.Collector) {
	a.general.Observe(col)
	if col == nil {
		a.obs = nil
		return
	}
	a.obs = &arenaObs{
		col:       col,
		scanLen:   col.LinearHistogram("arena.scan_len", 1, 32),
		allocSize: col.Log2Histogram("arena.alloc_size", 16),
		resets:    col.Counter("arena.resets"),
		fallbacks: col.Counter("arena.fallbacks"),
		pinned:    col.Gauge("arena.pinned"),
	}
}

// Alloc implements Allocator. Objects with predictedShort true are placed
// in an arena when possible.
func (a *Arena) Alloc(id trace.ObjectID, size int64, predictedShort bool) error {
	_, placed := a.where.get(id)
	if err := a.admit(id, size, placed); err != nil {
		return err
	}
	a.ops.PredChecks++
	if !predictedShort || size > a.arenaSize {
		return a.alloc(id, size, false)
	}
	// Try the current arena.
	cur := &a.arenas[a.current]
	if cur.used+size <= a.arenaSize {
		a.bump(id, size)
		return nil
	}
	// Scan for an arena with no live objects (paper: "the algorithm
	// scans all short-lived arenas attempting to find one with a zero
	// count field").
	n := len(a.arenas)
	for i := 1; i <= n; i++ {
		idx := (a.current + i) % n
		a.ops.ArenaScanSteps++
		if a.arenas[idx].count == 0 {
			a.arenas[idx].used = 0
			a.current = idx
			a.ops.ArenaResets++
			if a.obs != nil {
				a.obs.scanLen.Observe(int64(i))
				a.obs.resets.Inc()
				a.obs.col.Emit(obs.EvArenaReuse, int64(idx))
			}
			a.bump(id, size)
			return nil
		}
	}
	// All arenas pinned by live (possibly mispredicted) objects:
	// degenerate to the general-purpose allocator.
	if a.obs != nil {
		a.obs.scanLen.Observe(int64(n))
		a.obs.fallbacks.Inc()
		a.obs.col.Emit(obs.EvArenaOverflow, size)
	}
	return a.alloc(id, size, true)
}

// bump places an admitted object in the current arena.
func (a *Arena) bump(id trace.ObjectID, size int64) {
	st := &a.arenas[a.current]
	a.where.put(id, arenaLoc{idx: a.current, off: st.used, size: size})
	st.used += size
	st.count++
	a.ops.Allocs++
	a.ops.ArenaAllocs++
	a.ops.ArenaBytes += size
	if a.obs != nil {
		a.obs.allocSize.Observe(size)
		if st.count == 1 {
			a.obs.pinned.Set(int64(a.PinnedArenas()))
		}
	}
}

// Free implements Allocator. Arena objects just decrement their arena's
// live count (the address-range check in a real implementation is a couple
// of compares).
func (a *Arena) Free(id trace.ObjectID) error {
	if loc, ok := a.where.del(id); ok {
		st := &a.arenas[loc.idx]
		if st.count <= 0 {
			return fmt.Errorf("heapsim: arena %d count underflow freeing %d", loc.idx, id)
		}
		st.count--
		a.ops.Frees++
		a.ops.ArenaFrees++
		if a.obs != nil && st.count == 0 {
			a.obs.pinned.Set(int64(a.PinnedArenas()))
		}
		return nil
	}
	return a.free(id)
}

// HeapSize implements Allocator: the general heap plus the full arena
// area (the paper's Table 8 "include[s] the 64-kilobyte arena area").
func (a *Arena) HeapSize() int64 { return a.general.HeapSize() + a.area() }

// MaxHeapSize implements Allocator.
func (a *Arena) MaxHeapSize() int64 { return a.general.MaxHeapSize() + a.area() }

// Addr implements Allocator. Arena objects live in a synthetic window at
// ArenaBase, packed into the arena area, which is exactly the locality
// property the paper claims for them; general-heap objects use the
// first-fit address space starting at 0.
func (a *Arena) Addr(id trace.ObjectID) (int64, bool) {
	if loc, ok := a.where.get(id); ok {
		return ArenaBase + int64(loc.idx)*a.arenaSize + loc.off, true
	}
	return a.general.Addr(id)
}

// ArenaOccupancy reports the fraction of the arena area's bytes under
// the bump pointers of arenas holding live objects — the timeline
// sampler's arena-occupancy signal.
func (a *Arena) ArenaOccupancy() float64 {
	var used int64
	for _, st := range a.arenas {
		if st.count > 0 {
			used += st.used
		}
	}
	return float64(used) / float64(a.area())
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
