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
	hot     map[int64]*sizeClass // keyed by rounded request size
	heapEnd int64                // dedicated slab region (separate from the general heap)
	live    map[trace.ObjectID]customObj
	obs     *customObs // nil unless a collector is attached
}

// Request sizes are rounded to the allocator's 8-byte alignment before
// the hot-size check, and hot-size slabs are carved 4KB at a time.
const (
	customRounding = 8
	customSlab     = 4 << 10
)

// customObs caches resolved metric handles for the hot paths.
type customObs struct {
	col    *obs.Collector
	carves *obs.Counter
}

type sizeClass struct {
	free []int64 // free chunk addresses, LIFO
}

type customObj struct {
	addr    int64
	size    int64 // rounded size class (the chunk extent)
	payload int64 // requested bytes, for layout audits
}

// customBase places the slab region away from the general heap's address
// space, like the arena area.
const customBase = int64(1) << 41

// NewCustom returns a CUSTOMALLOC-style simulator whose hot sizes (the
// profiled request sizes, rounded) get dedicated free lists.
func NewCustom(hotSizes []int64) *Custom {
	c := &Custom{
		fallback: newFallback("custom"),
		hot:      make(map[int64]*sizeClass, len(hotSizes)),
		live:     make(map[trace.ObjectID]customObj),
	}
	for _, s := range hotSizes {
		c.hot[align(s, customRounding)] = &sizeClass{}
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
	_, placed := c.live[id]
	if err := c.admit(id, size, placed); err != nil {
		return err
	}
	rs := align(size, customRounding)
	class, ok := c.hot[rs]
	if !ok {
		return c.alloc(id, size, false)
	}
	c.ops.Allocs++
	if len(class.free) == 0 {
		// Carve a slab into exact-size chunks (no headers: the size is
		// implied by the owning list, one of CUSTOMALLOC's savings).
		c.ops.BSDCarves++
		slab := align(rs, customSlab)
		if c.obs != nil {
			c.obs.carves.Inc()
			c.obs.col.Emit(obs.EvHeapGrow, slab)
		}
		start := customBase + c.heapEnd
		c.heapEnd += slab
		for a := start; a+rs <= start+slab; a += rs {
			class.free = append(class.free, a)
		}
	}
	addr := class.free[len(class.free)-1]
	class.free = class.free[:len(class.free)-1]
	c.live[id] = customObj{addr: addr, size: rs, payload: size}
	c.ops.ArenaBytes += size // reuse the counter: bytes on the fast path
	return nil
}

// Free implements Allocator.
func (c *Custom) Free(id trace.ObjectID) error {
	o, ok := c.live[id]
	if ok {
		delete(c.live, id)
		c.ops.Frees++
		c.hot[o.size].free = append(c.hot[o.size].free, o.addr)
		return nil
	}
	return c.free(id)
}

// HeapSize implements Allocator: slab region plus the general heap.
func (c *Custom) HeapSize() int64 { return c.heapEnd + c.general.HeapSize() }

// MaxHeapSize implements Allocator (the slab region never shrinks).
func (c *Custom) MaxHeapSize() int64 { return c.heapEnd + c.general.MaxHeapSize() }

// Addr implements Allocator.
func (c *Custom) Addr(id trace.ObjectID) (int64, bool) {
	if o, ok := c.live[id]; ok {
		return o.addr, true
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
