package heapsim

import "repro/internal/trace"

// Span is one contiguous address range reported by a Walker: either a
// live object's block (headers and padding included in Size, the
// requested bytes in Payload) or a free block awaiting reuse. Spans are
// the auditable unit of an allocator's layout: internal/check sorts them,
// proves they are pairwise disjoint, and reconciles the live ones against
// the trace's own ledger.
type Span struct {
	// Region names the address window this span lives in ("heap",
	// "arena", "sitearena", "slab") and must match one of the allocator's
	// Regions.
	Region string
	// Addr and Size delimit the block, including any modeled header or
	// alignment padding.
	Addr, Size int64
	// Free marks blocks on a free list (or carved but unallocated).
	Free bool
	// Obj and Payload identify the live object occupying a non-free
	// span and its requested byte count.
	Obj     trace.ObjectID
	Payload int64
}

// Region describes one contiguous address window of an allocator's
// simulated address space. Windows of one allocator never overlap, and
// the sum of their extents equals HeapSize() — that identity is what ties
// the walked layout back to the Table 8 heap-size accounting.
type Region struct {
	Name string
	// Base and End delimit the window; End is exclusive. Base == End is
	// an empty window.
	Base, End int64
	// Tiled promises that the walked spans of this region exactly tile
	// [Base, End): sorted by address they are gapless as well as
	// disjoint. First-fit's block list and the slab heaps' carved slabs
	// tile; bump-pointer arena areas (where dead objects leave
	// unaccounted holes until a reset) do not.
	Tiled bool
	// Coalesced promises that free spans are never address-adjacent —
	// the immediate-coalescing invariant of the boundary-tag heaps.
	// Segregated-list allocators (BSD, SegFit, Custom) never coalesce
	// and leave it false.
	Coalesced bool
	// Header is the per-object bookkeeping overhead modeled inside each
	// live span's Size (0 for bump-pointer windows, whose spans carry no
	// header). It lets a layout scanner split Size - Payload into header
	// and padding components.
	Header int64
}

// Walker is implemented by every simulator that can expose its block and
// arena layout for conformance auditing. Walk must report every block the
// allocator tracks — live and free — and may emit spans in any order; the
// auditor sorts. Implementations are read-only: walking never perturbs
// allocator state, so an audit can run after any event without changing
// the replay's outcome.
type Walker interface {
	// Regions enumerates the allocator's address windows.
	Regions() []Region
	// Walk calls emit for every span; a non-nil error from emit aborts
	// the walk and is returned.
	Walk(emit func(Span) error) error
}

// liveByBlock inverts a live index for walking: block pointer -> object
// id. Built per walk so the hot allocation paths carry no extra
// bookkeeping.
func liveByBlock(live *trace.LiveSet[*ffBlock]) map[*ffBlock]trace.ObjectID {
	inv := make(map[*ffBlock]trace.ObjectID, live.Len())
	live.Walk(func(id trace.ObjectID, b *ffBlock) {
		inv[b] = id
	})
	return inv
}

// Regions implements Walker: the boundary-tag heap owns one sbrk window
// from 0.
func (ff *FirstFit) Regions() []Region {
	return []Region{{Name: "heap", Base: 0, End: ff.heapEnd, Tiled: true, Coalesced: true, Header: ffHeader}}
}

// Walk implements Walker over the address-ordered block list.
func (ff *FirstFit) Walk(emit func(Span) error) error {
	inv := liveByBlock(&ff.live)
	for b := ff.head; b != nil; b = b.aNext {
		s := Span{Region: "heap", Addr: b.addr, Size: b.size, Free: b.free}
		if !b.free {
			id, ok := inv[b]
			if !ok {
				// A non-free block no live object owns would be lost
				// memory; surface it as a live span with no payload so
				// the auditor reports the discrepancy rather than
				// silently skipping it.
				s.Payload = -1
			} else {
				s.Obj = id
				s.Payload = b.payload
			}
		}
		if err := emit(s); err != nil {
			return err
		}
	}
	return nil
}

// Regions implements Walker: the general heap plus the hot-size slab
// window, which live chunks, free chunks and slab tails tile.
func (c *Custom) Regions() []Region {
	return append(c.general.Regions(), c.slabs.Regions()...)
}

// Walk implements Walker: the general heap's blocks, then the slab
// window's chunks and tails.
func (c *Custom) Walk(emit func(Span) error) error {
	if err := c.general.Walk(emit); err != nil {
		return err
	}
	return c.slabs.Walk(emit)
}
