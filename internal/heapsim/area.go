package heapsim

import (
	"repro/internal/obs"
	"repro/internal/trace"
)

// arenaArea is the bump-pointer area behind Arena and SiteArena, the
// mechanism of the paper's §5.1: equal arenas, each only a bump pointer
// and a count of live objects, an arena reset when its count is zero,
// and the general heap taking what no arena has room for. The arenas sit
// in one flat slice, grouped into pools of per arenas: pool p owns
// arenas[p*per:(p+1)*per] and bumps into one current arena of them.
// Arena has one pool; SiteArena adds one per hash bucket on first use.
//
// The area owns the bump, the ring hunt within a pool, the spill to its
// embedded fallback heap, the count-decrement free, the live index and
// the synthetic addresses: arena g spans [base+g*size, base+(g+1)*size).
// Embedded in both simulators, it supplies their Name, Counts, HeapSize,
// MaxHeapSize, Addr, Regions, Walk, ArenaArea and ArenaOccupancy.
type arenaArea struct {
	fallback
	window string // the Region name and metric prefix: the simulator's name
	base   int64
	size   int64 // bytes per arena
	per    int   // arenas per pool
	arenas []arenaState
	cur    []int // each pool's current arena, an index into arenas
	live   trace.LiveSet[arenaLoc]
	obs    *areaObs // nil unless a collector is attached
}

type arenaState struct {
	used  int64 // the bump pointer's offset
	count int64 // live objects
}

// arenaLoc records where an area object was bump-allocated.
type arenaLoc struct {
	arena int // index into arenas
	off   int64
	size  int64  // requested bytes, for layout audits
	site  uint64 // the owning site, for SiteArena's owners
}

// areaObs caches resolved metric handles for the hot paths.
type areaObs struct {
	col       *obs.Collector
	scanLen   *obs.Histogram // arenas examined per hunt (linear)
	allocSize *obs.Histogram // arena-placed sizes (log2)
	resets    *obs.Counter
	fallbacks *obs.Counter
}

// newArenaArea returns an empty area of pools of per arenas of size bytes
// at base over a fresh general heap; name names the simulator, its
// errors, its window and its metrics.
func newArenaArea(name string, base, size int64, per int) arenaArea {
	return arenaArea{fallback: newFallback(name), window: name, base: base, size: size, per: per}
}

// observe attaches col to the area and its general heap; scanBins is the
// width of the scan-length histogram.
func (a *arenaArea) observe(col *obs.Collector, scanBins int) {
	a.general.Observe(col)
	if col == nil {
		a.obs = nil
		return
	}
	a.obs = &areaObs{
		col:       col,
		scanLen:   col.LinearHistogram(a.window+".scan_len", 1, scanBins),
		allocSize: col.Log2Histogram(a.window+".alloc_size", 16),
		resets:    col.Counter(a.window + ".resets"),
		fallbacks: col.Counter(a.window + ".fallbacks"),
	}
}

// addPool appends a pool of per empty arenas and returns its number.
func (a *arenaArea) addPool() int {
	a.cur = append(a.cur, len(a.arenas))
	a.arenas = append(a.arenas, make([]arenaState, a.per)...)
	return len(a.cur) - 1
}

// bump places an admitted object of at most size bytes, owned by site, in
// pool p: in the pool's current arena when it has room, else in the arena
// hunt finds. It returns the arena's index, or -1 without placing the
// object when every arena of the pool is pinned.
func (a *arenaArea) bump(p int, id trace.ObjectID, size int64, site uint64) int {
	g := a.cur[p]
	st := &a.arenas[g]
	if st.used+size > a.size {
		if g = a.hunt(p); g < 0 {
			return -1
		}
		st = &a.arenas[g]
	}
	a.live.Put(id, arenaLoc{arena: g, off: st.used, size: size, site: site})
	st.used += size
	st.count++
	a.ops.Allocs++
	a.ops.ArenaAllocs++
	a.ops.ArenaBytes += size
	if a.obs != nil {
		a.obs.allocSize.Observe(size)
	}
	return g
}

// hunt scans pool p's ring, from the arena after the current one, for an
// arena with no live objects (the paper: "the algorithm scans all
// short-lived arenas attempting to find one with a zero count field"),
// resets it and makes it current. It returns the arena's index, or -1
// when every arena of the pool is pinned.
func (a *arenaArea) hunt(p int) int {
	first, g := p*a.per, a.cur[p]
	for i := 1; i <= a.per; i++ {
		if g++; g == first+a.per {
			g = first
		}
		a.ops.ArenaScanSteps++
		if a.arenas[g].count == 0 {
			a.arenas[g].used = 0
			a.cur[p] = g
			a.ops.ArenaResets++
			if a.obs != nil {
				a.obs.scanLen.Observe(int64(i))
				a.obs.resets.Inc()
				a.obs.col.Emit(obs.EvArenaReuse, int64(g))
			}
			return g
		}
	}
	return -1
}

// spill places a predicted-short object whose pool is pinned by live
// (possibly mispredicted) objects in the general heap, "as if it were
// long-lived".
func (a *arenaArea) spill(id trace.ObjectID, size int64) error {
	if a.obs != nil {
		a.obs.scanLen.Observe(int64(a.per))
		a.obs.fallbacks.Inc()
		a.obs.col.Emit(obs.EvArenaOverflow, size)
	}
	return a.alloc(id, size, true)
}

// release frees an area object, deleted from live by the caller: it only
// decrements its arena's live count (the address-range check in a real
// implementation is a couple of compares). It is small enough to inline
// into a simulator's Free. A live object in an empty arena is a bug in
// the area, never a consequence of the trace, so it panics.
func (a *arenaArea) release(loc arenaLoc) {
	st := &a.arenas[loc.arena]
	if st.count <= 0 {
		panic("heapsim: arena count underflow")
	}
	st.count--
	a.ops.Frees++
	a.ops.ArenaFrees++
}

// ArenaArea reports the bytes of the arenas reserved so far.
func (a *arenaArea) ArenaArea() int64 { return int64(len(a.arenas)) * a.size }

// HeapSize implements Allocator: the general heap plus every reserved
// arena (the paper's Table 8 "include[s] the 64-kilobyte arena area").
func (a *arenaArea) HeapSize() int64 { return a.general.HeapSize() + a.ArenaArea() }

// MaxHeapSize implements Allocator; the area never shrinks.
func (a *arenaArea) MaxHeapSize() int64 { return a.general.MaxHeapSize() + a.ArenaArea() }

// addr is an area object's synthetic address.
func (a *arenaArea) addr(loc arenaLoc) int64 { return a.base + int64(loc.arena)*a.size + loc.off }

// Addr implements Allocator. Area objects are packed into their arenas,
// which is exactly the locality property the paper claims for them;
// general-heap objects use the first-fit address space starting at 0.
func (a *arenaArea) Addr(id trace.ObjectID) (int64, bool) {
	if loc, ok := a.live.Get(id); ok {
		return a.addr(loc), true
	}
	return a.general.Addr(id)
}

// ArenaOccupancy reports the fraction of the reserved arena bytes under
// the bump pointers of arenas holding live objects: the timeline
// sampler's arena-occupancy signal.
func (a *arenaArea) ArenaOccupancy() float64 {
	area := a.ArenaArea()
	if area == 0 {
		return 0
	}
	var used int64
	for _, st := range a.arenas {
		if st.count > 0 {
			used += st.used
		}
	}
	return float64(used) / float64(area)
}

// Regions implements Walker: the general heap's window plus the arena
// area's. The area is not tiled: freed objects leave holes under the bump
// pointers until a reset reclaims the whole arena.
func (a *arenaArea) Regions() []Region {
	return append(a.general.Regions(), Region{Name: a.window, Base: a.base, End: a.base + a.ArenaArea()})
}

// Walk implements Walker: the general heap's blocks, then one span per
// live area object at its synthetic address, in id order.
func (a *arenaArea) Walk(emit func(Span) error) error {
	if err := a.general.Walk(emit); err != nil {
		return err
	}
	var werr error
	a.live.Walk(func(id trace.ObjectID, loc arenaLoc) {
		if werr == nil {
			werr = emit(Span{Region: a.window, Addr: a.addr(loc), Size: loc.size, Obj: id, Payload: loc.size})
		}
	})
	return werr
}
