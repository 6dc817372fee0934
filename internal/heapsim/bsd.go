package heapsim

import (
	"math/bits"

	"repro/internal/obs"
	"repro/internal/trace"
)

// BSD simulates the 4.2BSD (Kingsley) malloc: requests are rounded up to a
// power of two (including a small header), each power-of-two class keeps a
// LIFO free list, empty lists are refilled by carving a page-sized slab,
// and nothing is ever split or coalesced. Allocation and free are a few
// loads and stores — the cheap, memory-hungry end of the Table 9 spectrum.
type BSD struct {
	heapEnd   int64
	liveBytes int64

	// freeLists is indexed by bucket (log2 chunk size); bucketFor yields
	// at most 64, so a fixed array replaces the old map and the hot paths
	// index it directly.
	freeLists [65][]int64
	live      objIndex[bsdObj]
	ops       OpCounts
	obs       *bsdObs // nil unless a collector is attached
}

// The fixed geometry: an 8-byte per-object header (the historical
// implementation's overhead union), 4KB page carves, and 16-byte (2^4)
// minimum chunks.
const (
	bsdHeader    = 8
	bsdPage      = 4 << 10
	bsdMinBucket = 4
)

// bsdObs caches resolved metric handles for the hot paths.
type bsdObs struct {
	col     *obs.Collector
	buckets *obs.Histogram // bucket index per allocation (linear)
	carves  *obs.Counter
}

type bsdObj struct {
	addr   int64
	bucket int
	size   int64 // requested bytes, for layout audits
}

// NewBSD returns a BSD malloc simulator.
func NewBSD() *BSD { return &BSD{} }

// Name returns the simulator's name.
func (b *BSD) Name() string { return "bsd" }

// Observe implements Observable.
func (b *BSD) Observe(col *obs.Collector) {
	if col == nil {
		b.obs = nil
		return
	}
	b.obs = &bsdObs{
		col:     col,
		buckets: col.LinearHistogram("bsd.bucket", 1, 32),
		carves:  col.Counter("bsd.carves"),
	}
}

// bucketFor returns the bucket index (log2 of the chunk size) for a
// request.
func (b *BSD) bucketFor(size int64) int {
	need := uint64(size + bsdHeader)
	k := bits.Len64(need - 1) // ceil(log2(need))
	if k < bsdMinBucket {
		k = bsdMinBucket
	}
	return k
}

// Alloc implements Allocator; predictedShort is ignored.
func (b *BSD) Alloc(id trace.ObjectID, size int64, _ bool) error {
	if size <= 0 {
		return errSize(size)
	}
	if _, dup := b.live.get(id); dup {
		return errDoubleAlloc("bsd", id)
	}
	bucket := b.bucketFor(size)
	b.ops.Allocs++
	b.ops.BSDBucketSum += int64(bucket)
	if b.obs != nil {
		b.obs.buckets.Observe(int64(bucket))
	}

	list := b.freeLists[bucket]
	if len(list) == 0 {
		// Carve a slab into chunks of this class.
		b.ops.BSDCarves++
		chunk := int64(1) << bucket
		slab := align(chunk, bsdPage)
		if b.obs != nil {
			b.obs.carves.Inc()
			b.obs.col.Emit(obs.EvHeapGrow, slab)
		}
		start := b.heapEnd
		b.heapEnd += slab
		for a := start; a+chunk <= start+slab; a += chunk {
			list = append(list, a)
		}
	}
	addr := list[len(list)-1]
	b.freeLists[bucket] = list[:len(list)-1]
	b.live.put(id, bsdObj{addr: addr, bucket: bucket, size: size})
	b.liveBytes += size
	return nil
}

// Free implements Allocator: push the chunk back on its bucket's list.
func (b *BSD) Free(id trace.ObjectID) error {
	o, ok := b.live.del(id)
	if !ok {
		return errUnknownFree("bsd", id)
	}
	b.liveBytes -= o.size
	b.ops.Frees++
	b.freeLists[o.bucket] = append(b.freeLists[o.bucket], o.addr)
	return nil
}

// HeapSize returns the current break. BSD's heap never shrinks, so the
// maximum equals the current value.
func (b *BSD) HeapSize() int64 { return b.heapEnd }

// MaxHeapSize implements Allocator.
func (b *BSD) MaxHeapSize() int64 { return b.heapEnd }

// Counts implements Allocator.
func (b *BSD) Counts() OpCounts { return b.ops }

// Addr implements Allocator.
func (b *BSD) Addr(id trace.ObjectID) (int64, bool) {
	o, ok := b.live.get(id)
	if !ok {
		return 0, false
	}
	return o.addr + bsdHeader, true
}
