package heapsim

import "repro/internal/trace"

// slabHeap is the segregated-list heap behind BSD, SegFit and Custom's hot
// sizes: one LIFO free list per size class, refilled by carving a
// page-rounded slab at the end of the heap into equal chunks, and nothing
// ever split or coalesced. The simulators differ only in how a request
// picks its class and in the header a chunk carries; the heap owns the
// carve, the free lists, the live index and the walk. Embedded in BSD and
// SegFit, it supplies their HeapSize, MaxHeapSize, Addr, Regions and Walk.
//
// Every carved byte is in exactly one place: a live chunk, a free chunk,
// or a slab's tail (the remainder past its last whole chunk, which no
// object ever uses). Walked together they tile the window [base, end).
type slabHeap struct {
	window    string // the Region name
	base, end int64
	header    int64 // per-object bookkeeping inside each chunk
	classes   []slabClass
	tails     []Span // free spans, one per slab with a remainder
	live      trace.LiveSet[slabObj]
}

// slabClass is one size class: its chunk extent, header included, and
// its LIFO free list of chunk addresses.
type slabClass struct {
	chunk int64
	free  []int64
}

// slabObj is a live object's chunk.
type slabObj struct {
	addr  int64
	class int
	size  int64 // requested bytes, for layout audits
}

// slabPage is the carve granularity: a slab is the smallest whole number
// of 4KB pages that holds one chunk.
const slabPage = 4 << 10

// addClass appends a class of chunk bytes and returns its index.
func (h *slabHeap) addClass(chunk int64) int {
	h.classes = append(h.classes, slabClass{chunk: chunk})
	return len(h.classes) - 1
}

// empty reports whether class has no free chunk, so that the caller must
// carve before it places.
func (h *slabHeap) empty(class int) bool { return len(h.classes[class].free) == 0 }

// carve refills class from one slab at the end of the heap and returns
// the slab's extent. The chunks go on the list in address order, so the
// lowest is handed out last.
func (h *slabHeap) carve(class int) int64 {
	c := &h.classes[class]
	slab := align(c.chunk, slabPage)
	a, end := h.end, h.end+slab
	for ; a+c.chunk <= end; a += c.chunk {
		c.free = append(c.free, a)
	}
	if a < end {
		h.tails = append(h.tails, Span{Region: h.window, Addr: a, Size: end - a, Free: true})
	}
	h.end = end
	return slab
}

// pop takes the chunk most recently pushed on class's list, which must
// not be empty, for an object of size bytes; the caller puts the result
// in live. pop and push stay small enough to inline, so a simulator's
// Alloc and Free make no more calls than a hand-written free list would.
func (h *slabHeap) pop(class int, size int64) slabObj {
	c := &h.classes[class]
	n := len(c.free) - 1
	o := slabObj{addr: c.free[n], class: class, size: size}
	c.free = c.free[:n]
	return o
}

// push returns a dead object's chunk, deleted from live by the caller, to
// its class's list.
func (h *slabHeap) push(o slabObj) {
	c := &h.classes[o.class]
	c.free = append(c.free, o.addr)
}

// HeapSize returns the carved extent. A slab heap never shrinks.
func (h *slabHeap) HeapSize() int64 { return h.end - h.base }

// MaxHeapSize equals HeapSize, since the heap never shrinks.
func (h *slabHeap) MaxHeapSize() int64 { return h.end - h.base }

// Addr returns live object id's payload address, just past its chunk's
// header.
func (h *slabHeap) Addr(id trace.ObjectID) (int64, bool) {
	o, ok := h.live.Get(id)
	if !ok {
		return 0, false
	}
	return o.addr + h.header, true
}

// Regions returns the heap's one window, which its walk tiles.
func (h *slabHeap) Regions() []Region {
	return []Region{{Name: h.window, Base: h.base, End: h.end, Tiled: true, Header: h.header}}
}

// Walk emits every carved byte: the live chunks in id order, each
// class's free chunks, then the slab tails.
func (h *slabHeap) Walk(emit func(Span) error) error {
	var werr error
	h.live.Walk(func(id trace.ObjectID, o slabObj) {
		if werr == nil {
			werr = emit(Span{Region: h.window, Addr: o.addr, Size: h.classes[o.class].chunk, Obj: id, Payload: o.size})
		}
	})
	if werr != nil {
		return werr
	}
	for _, c := range h.classes {
		for _, a := range c.free {
			if err := emit(Span{Region: h.window, Addr: a, Size: c.chunk, Free: true}); err != nil {
				return err
			}
		}
	}
	for _, t := range h.tails {
		if err := emit(t); err != nil {
			return err
		}
	}
	return nil
}
