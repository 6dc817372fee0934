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
	// The heap's classes are segClasses, in order, then each large chunk
	// size in first-use order; large maps a large chunk size to its
	// class.
	slabHeap
	large map[int64]int
	ops   OpCounts
	obs   *segObs // nil unless a collector is attached
}

// segHeader is the per-object header inside each chunk.
const segHeader = 8

// segObs caches resolved metric handles for the hot paths.
type segObs struct {
	col    *obs.Collector
	carves *obs.Counter
	class  *obs.Histogram // chunk size per allocation (log2)
}

// NewSegFit returns a segregated-fit simulator.
func NewSegFit() *SegFit {
	s := &SegFit{
		slabHeap: slabHeap{window: "heap", header: segHeader, classes: make([]slabClass, 0, len(segClasses))},
		large:    make(map[int64]int),
	}
	for _, chunk := range segClasses {
		s.addClass(chunk)
	}
	return s
}

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

// classFor returns the class serving a request: the smallest of
// segClasses that fits size plus the header, or for a large request the
// class of its page-rounded need, added on first use.
func (s *SegFit) classFor(size int64) int {
	need := size + segHeader
	if need <= segClasses[len(segClasses)-1] {
		return sort.Search(len(segClasses), func(i int) bool { return segClasses[i] >= need })
	}
	chunk := align(need, slabPage)
	class, ok := s.large[chunk]
	if !ok {
		class = s.addClass(chunk)
		s.large[chunk] = class
	}
	return class
}

// Alloc implements Allocator; predictedShort is ignored (like BSD and
// CUSTOMALLOC, segregated fit optimizes placement by size, not lifetime).
func (s *SegFit) Alloc(id trace.ObjectID, size int64, _ bool) error {
	if err := checkSize(size); err != nil {
		return err
	}
	if _, dup := s.live.Get(id); dup {
		return errDoubleAlloc("segfit", id)
	}
	class := s.classFor(size)
	s.ops.Allocs++
	if s.obs != nil {
		s.obs.class.Observe(s.classes[class].chunk)
	}
	if s.empty(class) {
		// Small classes carve one page into equal chunks; large chunks
		// are page-rounded already and carve exactly.
		s.ops.SegCarves++
		slab := s.carve(class)
		if s.obs != nil {
			s.obs.carves.Inc()
			s.obs.col.Emit(obs.EvHeapGrow, slab)
		}
	}
	s.live.Put(id, s.pop(class, size))
	return nil
}

// Free implements Allocator: push the chunk back on its class list.
func (s *SegFit) Free(id trace.ObjectID) error {
	o, ok := s.live.Delete(id)
	if !ok {
		return errUnknownFree("segfit", id)
	}
	s.push(o)
	s.ops.Frees++
	return nil
}

// Counts implements Allocator.
func (s *SegFit) Counts() OpCounts { return s.ops }
