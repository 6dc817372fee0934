package heapsim

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/trace"
)

// FirstFit simulates the boundary-tag heap behind the first-fit and
// best-fit allocators (Knuth, TAOCP vol. 1 §2.5): an address-ordered
// block list with boundary-tag-style immediate coalescing, so Free is
// O(1), a circular free list, and sbrk-style growth in fixed 8KB chunks,
// which is why the paper's Table 8 heap sizes are 8KB multiples. The two
// allocators differ only in their search. First fit (NewFirstFit) keeps
// a roving pointer so successive searches resume where the last one
// stopped (Algorithm A step A4', "next fit"). Best fit (NewBestFit) scans
// the whole free list for the block with the least leftover space,
// trading much longer searches for tighter packing.
type FirstFit struct {
	// RoverOnFree selects the K&R variant in which free leaves the
	// roving pointer at the freed block, so freshly dead storage is
	// reused immediately. The default (false) is Knuth's A4' next fit:
	// the rover stays where the last allocation happened, which spreads
	// placements across the heap — the fragmentation behaviour the
	// paper's Table 8 exhibits on GHOST. The policy is an ablation knob;
	// see EXPERIMENTS.md.
	RoverOnFree bool

	name       string // names errors: "firstfit", "bestfit", or the composite that owns this heap
	prefix     string // metric prefix: the name, except a composite's general heap keeps "firstfit"
	bestFit    bool   // search the whole free list for the tightest fit
	heapEnd    int64
	maxHeapEnd int64
	liveBytes  int64
	obs        *ffObs // nil unless a collector is attached

	head, tail *ffBlock // address-ordered list of all blocks
	freeHead   *ffBlock // circular free list
	rover      *ffBlock
	freeBlocks int
	pool       ffBlockPool

	live trace.LiveSet[*ffBlock]
	ops  OpCounts
}

// The heap's fixed geometry: 8-byte alignment and per-object header (a
// size word and boundary tags, as in a typical 1990s malloc), the 8KB
// sbrk growth chunk, and the smallest free fragment worth keeping;
// smaller remainders are absorbed into the allocated block rather than
// left as dead weight on the free list.
const (
	ffAlign    = 8
	ffHeader   = 8
	ffChunk    = 8 << 10
	ffMinSplit = 32
)

type ffBlock struct {
	addr, size   int64 // size includes the header and padding
	payload      int64 // the requested size (live blocks only)
	free         bool
	aPrev, aNext *ffBlock // address order
	fPrev, fNext *ffBlock // circular free list (only valid when free)
}

// ffBlockPool recycles ffBlock records so steady-state replay performs no
// per-event heap allocation: coalescing releases a record, the next split
// or extend reuses it. Fresh records come from slabs grown geometrically
// (so a replay needing N simultaneous blocks performs O(log N) slab
// allocations), and released records are fully zeroed so a recycled block
// never retains pointers into the dead block graph.
type ffBlockPool struct {
	free     *ffBlock  // LIFO reuse list, linked through aNext
	slab     []ffBlock // current slab, consumed from the front
	slabSize int
}

const (
	ffSlabStart = 64
	ffSlabCap   = 64 << 10
)

func (p *ffBlockPool) get() *ffBlock {
	if b := p.free; b != nil {
		p.free = b.aNext
		b.aNext = nil
		return b
	}
	if len(p.slab) == 0 {
		if p.slabSize == 0 {
			p.slabSize = ffSlabStart
		} else if p.slabSize < ffSlabCap {
			p.slabSize *= 2
		}
		p.slab = make([]ffBlock, p.slabSize)
	}
	b := &p.slab[0]
	p.slab = p.slab[1:]
	return b
}

func (p *ffBlockPool) put(b *ffBlock) {
	*b = ffBlock{aNext: p.free}
	p.free = b
}

// NewFirstFit returns a first-fit (next-fit) simulator.
func NewFirstFit() *FirstFit { return &FirstFit{name: "firstfit", prefix: "firstfit"} }

// NewBestFit returns a best-fit simulator: the same heap with the
// full-scan search. Its errors and metrics say "bestfit".
func NewBestFit() *FirstFit { return &FirstFit{name: "bestfit", prefix: "bestfit", bestFit: true} }

// Name returns the simulator's name.
func (ff *FirstFit) Name() string { return ff.name }

// ffObs caches resolved metric handles so the hot paths pay one nil
// check, not a registry lookup, per operation.
type ffObs struct {
	col       *obs.Collector
	searchLen *obs.Histogram // free blocks probed per allocation (linear)
	allocSize *obs.Histogram // requested sizes (log2)
	splits    *obs.Counter
	coalesces *obs.Counter
	extends   *obs.Counter
}

// Observe implements Observable: metrics are prefixed "firstfit." or
// "bestfit.".
func (ff *FirstFit) Observe(col *obs.Collector) {
	if col == nil {
		ff.obs = nil
		return
	}
	p := ff.prefix
	ff.obs = &ffObs{
		col:       col,
		searchLen: col.LinearHistogram(p+".search_len", 4, 64),
		allocSize: col.Log2Histogram(p+".alloc_size", 24),
		splits:    col.Counter(p + ".splits"),
		coalesces: col.Counter(p + ".coalesces"),
		extends:   col.Counter(p + ".extends"),
	}
}

// freeListInsert links b into the circular free list after the rover.
func (ff *FirstFit) freeListInsert(b *ffBlock) {
	ff.freeBlocks++
	if ff.freeHead == nil {
		b.fNext, b.fPrev = b, b
		ff.freeHead = b
		ff.rover = b
		return
	}
	at := ff.rover
	b.fNext = at.fNext
	b.fPrev = at
	at.fNext.fPrev = b
	at.fNext = b
}

// freeListRemove unlinks b from the circular free list.
func (ff *FirstFit) freeListRemove(b *ffBlock) {
	ff.freeBlocks--
	if b.fNext == b {
		ff.freeHead = nil
		ff.rover = nil
	} else {
		b.fPrev.fNext = b.fNext
		b.fNext.fPrev = b.fPrev
		if ff.freeHead == b {
			ff.freeHead = b.fNext
		}
		if ff.rover == b {
			ff.rover = b.fNext
		}
	}
	b.fNext, b.fPrev = nil, nil
}

// extend grows the heap by at least need bytes (in ffChunk multiples),
// merging the new space with a trailing free block when possible. The
// heap never grows past ArenaBase, where a composite's other windows
// begin: extend reports false, changing nothing, when need would take it
// there.
func (ff *FirstFit) extend(need int64) bool {
	growth := align(need, ffChunk)
	if growth > ArenaBase-ff.heapEnd {
		return false
	}
	ff.ops.FFExtends++
	if ff.obs != nil {
		ff.obs.extends.Inc()
		ff.obs.col.Emit(obs.EvHeapGrow, growth)
	}
	start := ff.heapEnd
	ff.heapEnd += growth
	if ff.heapEnd > ff.maxHeapEnd {
		ff.maxHeapEnd = ff.heapEnd
	}
	if ff.tail != nil && ff.tail.free {
		ff.tail.size += growth
		return true
	}
	b := ff.pool.get()
	b.addr, b.size, b.free = start, growth, true
	b.aPrev = ff.tail
	if ff.tail != nil {
		ff.tail.aNext = b
	} else {
		ff.head = b
	}
	ff.tail = b
	ff.freeListInsert(b)
	return true
}

// Alloc implements Allocator. The predictedShort hint is ignored.
func (ff *FirstFit) Alloc(id trace.ObjectID, size int64, _ bool) error {
	if err := checkSize(size); err != nil {
		return err
	}
	if _, dup := ff.live.Get(id); dup {
		return errDoubleAlloc(ff.name, id)
	}
	return ff.place(id, size)
}

// place allocates a checked request: a size checkSize accepts, whose id
// is not live. A request the heap has no room for fails and leaves the
// heap and its counts as they were.
func (ff *FirstFit) place(id trace.ObjectID, size int64) error {
	need := align(size+ffHeader, ffAlign)

	probesBefore := ff.ops.FFProbes
	b := ff.search(need)
	if b == nil {
		if !ff.extend(need) {
			ff.ops.FFProbes = probesBefore
			return errHeapFull(ff.name, size)
		}
		b = ff.search(need)
		if b == nil {
			return fmt.Errorf("heapsim: internal error: no fit after extend for %d bytes", need)
		}
	}
	ff.ops.Allocs++
	ff.ops.FFAllocs++
	if ff.obs != nil {
		ff.obs.searchLen.Observe(ff.ops.FFProbes - probesBefore)
		ff.obs.allocSize.Observe(size)
	}
	// Allocate from the front of b; keep the tail free when the
	// remainder is worth it.
	if b.size-need >= ffMinSplit {
		ff.ops.FFSplits++
		if ff.obs != nil {
			ff.obs.splits.Inc()
		}
		rest := ff.pool.get()
		rest.addr, rest.size, rest.free = b.addr+need, b.size-need, true
		rest.aPrev, rest.aNext = b, b.aNext
		if b.aNext != nil {
			b.aNext.aPrev = rest
		} else {
			ff.tail = rest
		}
		b.aNext = rest
		b.size = need
		// The remainder replaces b in the free list at b's position.
		rest.fPrev, rest.fNext = b.fPrev, b.fNext
		if b.fNext == b {
			rest.fPrev, rest.fNext = rest, rest
		} else {
			b.fPrev.fNext = rest
			b.fNext.fPrev = rest
		}
		if ff.freeHead == b {
			ff.freeHead = rest
		}
		if ff.rover == b {
			ff.rover = rest
		}
		b.fNext, b.fPrev = nil, nil
	} else {
		ff.freeListRemove(b)
	}
	b.free = false
	b.payload = size
	ff.live.Put(id, b)
	ff.liveBytes += size
	return nil
}

// search returns a free block of at least need bytes, or nil, counting
// every block it examines. First fit walks the circular free list from
// the rover, takes the first block that fits and leaves the rover there
// (Knuth's A4': the next search resumes at it). Best fit scans the whole
// list from its head for the tightest fit, stopping early only on an
// exact fit, and leaves the rover alone.
func (ff *FirstFit) search(need int64) *ffBlock {
	var best *ffBlock
	b := ff.rover
	if ff.bestFit {
		b = ff.freeHead
	}
	for i := 0; i < ff.freeBlocks; i++ {
		ff.ops.FFProbes++
		if b.size >= need && (best == nil || b.size < best.size) {
			best = b
			if !ff.bestFit {
				ff.rover = b
				break
			}
			if b.size == need {
				break // exact fit: cannot do better
			}
		}
		b = b.fNext
	}
	return best
}

// Free implements Allocator: O(1) boundary-tag coalescing with both
// address neighbors.
func (ff *FirstFit) Free(id trace.ObjectID) error {
	b, ok := ff.live.Delete(id)
	if !ok {
		return errUnknownFree(ff.name, id)
	}
	ff.liveBytes -= b.payload
	ff.ops.Frees++
	ff.ops.FFFrees++
	b.free = true

	// Merge with the previous block.
	if p := b.aPrev; p != nil && p.free {
		ff.ops.FFCoalesces++
		if ff.obs != nil {
			ff.obs.coalesces.Inc()
			ff.obs.col.Emit(obs.EvCoalesce, p.size+b.size)
		}
		p.size += b.size
		p.aNext = b.aNext
		if b.aNext != nil {
			b.aNext.aPrev = p
		} else {
			ff.tail = p
		}
		ff.pool.put(b)
		b = p
	} else {
		ff.freeListInsert(b)
	}
	// Merge with the next block.
	if n := b.aNext; n != nil && n.free {
		ff.ops.FFCoalesces++
		if ff.obs != nil {
			ff.obs.coalesces.Inc()
			ff.obs.col.Emit(obs.EvCoalesce, b.size+n.size)
		}
		ff.freeListRemove(n)
		b.size += n.size
		b.aNext = n.aNext
		if n.aNext != nil {
			n.aNext.aPrev = b
		} else {
			ff.tail = b
		}
		ff.pool.put(n)
	}
	if ff.RoverOnFree {
		ff.rover = b
	}
	return nil
}

// HeapSize returns the current break.
func (ff *FirstFit) HeapSize() int64 { return ff.heapEnd }

// MaxHeapSize returns the high-water mark of the break.
func (ff *FirstFit) MaxHeapSize() int64 { return ff.maxHeapEnd }

// LiveBytes returns the approximate payload bytes currently allocated.
func (ff *FirstFit) LiveBytes() int64 { return ff.liveBytes }

// LiveObjects returns the number of live objects.
func (ff *FirstFit) LiveObjects() int { return ff.live.Len() }

// Counts implements Allocator.
func (ff *FirstFit) Counts() OpCounts { return ff.ops }

// Addr implements Allocator.
func (ff *FirstFit) Addr(id trace.ObjectID) (int64, bool) {
	b, ok := ff.live.Get(id)
	if !ok {
		return 0, false
	}
	return b.addr + ffHeader, true
}

// CheckInvariants validates the block structures; used by tests.
func (ff *FirstFit) CheckInvariants() error {
	var prev *ffBlock
	var addr int64
	freeSeen := 0
	for b := ff.head; b != nil; b = b.aNext {
		if b.addr != addr {
			return fmt.Errorf("block at %d, expected %d (gap or overlap)", b.addr, addr)
		}
		if b.size <= 0 {
			return fmt.Errorf("block at %d has size %d", b.addr, b.size)
		}
		if b.aPrev != prev {
			return fmt.Errorf("block at %d has bad aPrev", b.addr)
		}
		if b.free {
			freeSeen++
			if prev != nil && prev.free {
				return fmt.Errorf("adjacent free blocks at %d and %d", prev.addr, b.addr)
			}
		}
		addr += b.size
		prev = b
	}
	if addr != ff.heapEnd {
		return fmt.Errorf("blocks cover %d bytes, heap end is %d", addr, ff.heapEnd)
	}
	if prev != ff.tail {
		return fmt.Errorf("tail pointer stale")
	}
	if freeSeen != ff.freeBlocks {
		return fmt.Errorf("free list count %d, address walk found %d", ff.freeBlocks, freeSeen)
	}
	// Free list must be circular and consistent.
	if ff.freeHead != nil {
		n := 0
		b := ff.freeHead
		for {
			if !b.free {
				return fmt.Errorf("non-free block at %d on free list", b.addr)
			}
			if b.fNext.fPrev != b {
				return fmt.Errorf("free list links broken at %d", b.addr)
			}
			n++
			if n > ff.freeBlocks {
				return fmt.Errorf("free list longer than count %d", ff.freeBlocks)
			}
			b = b.fNext
			if b == ff.freeHead {
				break
			}
		}
		if n != ff.freeBlocks {
			return fmt.Errorf("free list length %d, count %d", n, ff.freeBlocks)
		}
	} else if ff.freeBlocks != 0 {
		return fmt.Errorf("freeBlocks %d with empty list", ff.freeBlocks)
	}
	return nil
}
