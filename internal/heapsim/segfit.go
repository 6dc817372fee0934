package heapsim

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/trace"
)

// segClasses are the small-object chunk sizes (header included) of the
// segregated-fit simulator, a tcmalloc-style class table: 16-byte spacing
// up to 128, then geometric-ish steps to one page quarter. Chunks above
// the last class take the large path (page-rounded exact spans).
var segClasses = []int64{
	16, 32, 48, 64, 80, 96, 112, 128,
	160, 192, 224, 256, 320, 384, 448, 512,
	640, 768, 896, 1024,
}

// SegFit simulates a modern segregated size-class/slab allocator in the
// tcmalloc/jemalloc family (see "Simulation of High-Performance Memory
// Allocators", PAPERS.md): each small size class owns a LIFO free list
// refilled by carving page slabs into equal chunks, large requests get
// page-rounded exact-size spans, and nothing is ever split or coalesced.
// Compared with BSD's power-of-two buckets the finer class table trades a
// little metadata for far less internal fragmentation — which is exactly
// the axis the tournament ranks it on against the paper's allocators.
type SegFit struct {
	heapEnd   int64
	liveBytes int64

	// free maps a chunk size (class or page-rounded large size) to its
	// LIFO free list of chunk addresses.
	free map[int64][]int64
	// tails records the permanently unused remainder of each carved slab
	// whose class does not divide the page, so the walked spans tile the
	// region exactly.
	tails []segTail
	live  objIndex[segObj]
	ops   OpCounts
	obs   *segObs // nil unless a collector is attached
}

// The fixed geometry: an 8-byte per-object header and 4KB page carves.
const (
	segHeader = 8
	segPage   = 4 << 10
)

// segObs caches resolved metric handles for the hot paths.
type segObs struct {
	col    *obs.Collector
	carves *obs.Counter
	class  *obs.Histogram // chunk size per allocation (log2)
}

type segObj struct {
	addr  int64
	chunk int64 // chunk extent, header included
	size  int64 // requested bytes, for layout audits
}

// segTail is a carved slab's unusable remainder.
type segTail struct {
	addr, size int64
}

// NewSegFit returns a segregated-fit simulator.
func NewSegFit() *SegFit { return &SegFit{free: make(map[int64][]int64, len(segClasses))} }

// Name returns the simulator's name.
func (s *SegFit) Name() string { return "segfit" }

// Observe implements Observable.
func (s *SegFit) Observe(col *obs.Collector) {
	if col == nil {
		s.obs = nil
		return
	}
	s.obs = &segObs{
		col:    col,
		carves: col.Counter("segfit.carves"),
		class:  col.Log2Histogram("segfit.chunk", 32),
	}
}

// chunkFor returns the chunk size serving a request: the smallest class
// that fits size plus the header, or the page-rounded need for large
// requests.
func (s *SegFit) chunkFor(size int64) int64 {
	need := size + segHeader
	if need <= segClasses[len(segClasses)-1] {
		i := sort.Search(len(segClasses), func(i int) bool { return segClasses[i] >= need })
		return segClasses[i]
	}
	return align(need, segPage)
}

// Alloc implements Allocator; predictedShort is ignored (like BSD and
// CUSTOMALLOC, segregated fit optimizes placement by size, not lifetime).
func (s *SegFit) Alloc(id trace.ObjectID, size int64, _ bool) error {
	if size <= 0 {
		return errSize(size)
	}
	if _, dup := s.live.get(id); dup {
		return errDoubleAlloc("segfit", id)
	}
	chunk := s.chunkFor(size)
	s.ops.Allocs++
	if s.obs != nil {
		s.obs.class.Observe(chunk)
	}

	list := s.free[chunk]
	if len(list) == 0 {
		// Refill: small classes carve one page into equal chunks (any
		// remainder is a permanent tail); large chunks are page-rounded
		// already and carve exactly.
		s.ops.SegCarves++
		slab := align(chunk, segPage)
		if s.obs != nil {
			s.obs.carves.Inc()
			s.obs.col.Emit(obs.EvHeapGrow, slab)
		}
		start := s.heapEnd
		s.heapEnd += slab
		a := start
		for ; a+chunk <= start+slab; a += chunk {
			list = append(list, a)
		}
		if tail := start + slab - a; tail > 0 {
			s.tails = append(s.tails, segTail{addr: a, size: tail})
		}
	}
	addr := list[len(list)-1]
	s.free[chunk] = list[:len(list)-1]
	s.live.put(id, segObj{addr: addr, chunk: chunk, size: size})
	s.liveBytes += size
	return nil
}

// Free implements Allocator: push the chunk back on its class list.
func (s *SegFit) Free(id trace.ObjectID) error {
	o, ok := s.live.del(id)
	if !ok {
		return errUnknownFree("segfit", id)
	}
	s.liveBytes -= o.size
	s.ops.Frees++
	s.free[o.chunk] = append(s.free[o.chunk], o.addr)
	return nil
}

// HeapSize returns the current break. The slab heap never shrinks, so
// the maximum equals the current value.
func (s *SegFit) HeapSize() int64 { return s.heapEnd }

// MaxHeapSize implements Allocator.
func (s *SegFit) MaxHeapSize() int64 { return s.heapEnd }

// Counts implements Allocator.
func (s *SegFit) Counts() OpCounts { return s.ops }

// Addr implements Allocator.
func (s *SegFit) Addr(id trace.ObjectID) (int64, bool) {
	o, ok := s.live.get(id)
	if !ok {
		return 0, false
	}
	return o.addr + segHeader, true
}

// Regions implements Walker: one carve window from 0. It is tiled — live
// chunks, free-list chunks, and the recorded slab tails cover it exactly.
func (s *SegFit) Regions() []Region {
	return []Region{{Name: "heap", Base: 0, End: s.heapEnd, Tiled: true, Header: segHeader}}
}

// Walk implements Walker: live chunks, free chunks per class list, and
// the permanent slab tails (reported free, since they hold no object).
func (s *SegFit) Walk(emit func(Span) error) error {
	var werr error
	s.live.forEach(func(id trace.ObjectID, o segObj) {
		if werr != nil {
			return
		}
		werr = emit(Span{
			Region:  "heap",
			Addr:    o.addr,
			Size:    o.chunk,
			Obj:     id,
			Payload: o.size,
		})
	})
	if werr != nil {
		return werr
	}
	for chunk, list := range s.free {
		for _, addr := range list {
			if err := emit(Span{Region: "heap", Addr: addr, Size: chunk, Free: true}); err != nil {
				return err
			}
		}
	}
	for _, t := range s.tails {
		if err := emit(Span{Region: "heap", Addr: t.addr, Size: t.size, Free: true}); err != nil {
			return err
		}
	}
	return nil
}
