package heapsim

import (
	"repro/internal/obs"
	"repro/internal/trace"
)

// Custom simulates a CUSTOMALLOC-style allocator (Grunwald & Zorn, the
// paper's reference [9] and the other profile-based-optimization lineage
// it builds on): training profiles identify the hottest request sizes,
// and the synthesized allocator gives each of those sizes its own exact-
// fit LIFO free list, carved from dedicated slabs with no per-object
// search, split, or coalesce. Everything else falls back to first-fit.
//
// Unlike the arena allocator it does not use lifetime prediction — it
// optimizes the speed of hot sizes, not the placement of short-lived
// objects — which is exactly the contrast the paper draws ("no
// optimization based upon predicted lifetimes is performed in their
// work").
type Custom struct {
	fallback
	slabs slabHeap      // the hot sizes' window, at customBase, headerless
	hot   map[int64]int // rounded request size -> its class in slabs
	obs   *customObs    // nil unless a collector is attached
}

// Request sizes are rounded to the allocator's 8-byte alignment before
// the hot-size check.
const customRounding = 8

// customObs caches resolved metric handles for the hot paths.
type customObs struct {
	col    *obs.Collector
	carves *obs.Counter
}

// customBase places the slab region away from the general heap's address
// space, like the arena area.
const customBase = int64(1) << 41

// NewCustom returns a CUSTOMALLOC-style simulator whose hot sizes (the
// profiled request sizes, rounded) get dedicated free lists. Chunks carry
// no header: the size is implied by the owning list, one of
// CUSTOMALLOC's savings.
func NewCustom(hotSizes []int64) *Custom {
	c := &Custom{
		fallback: newFallback("custom"),
		slabs:    slabHeap{window: "slab", base: customBase, end: customBase},
		hot:      make(map[int64]int, len(hotSizes)),
	}
	for _, s := range hotSizes {
		rs := align(s, customRounding)
		if _, dup := c.hot[rs]; !dup {
			c.hot[rs] = c.slabs.addClass(rs)
		}
	}
	return c
}

// Observe implements Observable; the collector also attaches to the
// general fallback heap.
func (c *Custom) Observe(col *obs.Collector) {
	c.general.Observe(col)
	if col == nil {
		c.obs = nil
		return
	}
	c.obs = &customObs{col: col, carves: col.Counter("custom.carves")}
}

// Alloc implements Allocator; the predictedShort hint is ignored.
func (c *Custom) Alloc(id trace.ObjectID, size int64, _ bool) error {
	_, placed := c.slabs.live.Get(id)
	if err := c.admit(id, size, placed); err != nil {
		return err
	}
	class, ok := c.hot[align(size, customRounding)]
	if !ok {
		return c.alloc(id, size, false)
	}
	c.ops.Allocs++
	if c.slabs.empty(class) {
		c.ops.BSDCarves++
		slab := c.slabs.carve(class)
		if c.obs != nil {
			c.obs.carves.Inc()
			c.obs.col.Emit(obs.EvHeapGrow, slab)
		}
	}
	c.slabs.live.Put(id, c.slabs.pop(class, size))
	c.ops.ArenaBytes += size // reuse the counter: bytes on the fast path
	return nil
}

// Free implements Allocator.
func (c *Custom) Free(id trace.ObjectID) error {
	if o, ok := c.slabs.live.Delete(id); ok {
		c.slabs.push(o)
		c.ops.Frees++
		return nil
	}
	return c.free(id)
}

// HeapSize implements Allocator: slab region plus the general heap.
func (c *Custom) HeapSize() int64 { return c.slabs.HeapSize() + c.general.HeapSize() }

// MaxHeapSize implements Allocator (the slab region never shrinks).
func (c *Custom) MaxHeapSize() int64 { return c.slabs.MaxHeapSize() + c.general.MaxHeapSize() }

// Addr implements Allocator.
func (c *Custom) Addr(id trace.ObjectID) (int64, bool) {
	if a, ok := c.slabs.Addr(id); ok {
		return a, true
	}
	return c.general.Addr(id)
}

// FastPathFrac reports the fraction of allocations served by the
// synthesized per-size lists.
func (c *Custom) FastPathFrac() float64 {
	total := c.ops.Allocs
	if total == 0 {
		return 0
	}
	general := c.Counts().FFAllocs
	return float64(total-general) / float64(total)
}
