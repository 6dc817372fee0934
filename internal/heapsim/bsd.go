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
	slabHeap // class k holds chunks of 1<<k bytes; bucketFor picks k
	ops      OpCounts
	obs      *bsdObs // nil unless a collector is attached
}

// The fixed geometry: an 8-byte per-object header (the historical
// implementation's overhead union) and 16-byte (2^4) minimum chunks,
// carved from whole 4KB pages (slabPage).
const (
	bsdHeader    = 8
	bsdMinBucket = 4
)

// bsdObs caches resolved metric handles for the hot paths.
type bsdObs struct {
	col     *obs.Collector
	buckets *obs.Histogram // bucket index per allocation (linear)
	carves  *obs.Counter
}

// NewBSD returns a BSD malloc simulator.
func NewBSD() *BSD {
	b := &BSD{slabHeap: slabHeap{window: "heap", header: bsdHeader, classes: make([]slabClass, 0, 65)}}
	for k := 0; k <= 64; k++ { // bucketFor yields at most 64
		b.addClass(int64(1) << k)
	}
	return b
}

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
	if err := checkSize(size); err != nil {
		return err
	}
	if _, dup := b.live.Get(id); dup {
		return errDoubleAlloc("bsd", id)
	}
	bucket := b.bucketFor(size)
	b.ops.Allocs++
	b.ops.BSDBucketSum += int64(bucket)
	if b.obs != nil {
		b.obs.buckets.Observe(int64(bucket))
	}
	if b.empty(bucket) {
		b.ops.BSDCarves++
		slab := b.carve(bucket)
		if b.obs != nil {
			b.obs.carves.Inc()
			b.obs.col.Emit(obs.EvHeapGrow, slab)
		}
	}
	b.live.Put(id, b.pop(bucket, size))
	return nil
}

// Free implements Allocator: push the chunk back on its bucket's list.
func (b *BSD) Free(id trace.ObjectID) error {
	o, ok := b.live.Delete(id)
	if !ok {
		return errUnknownFree("bsd", id)
	}
	b.push(o)
	b.ops.Frees++
	return nil
}

// Counts implements Allocator.
func (b *BSD) Counts() OpCounts { return b.ops }
