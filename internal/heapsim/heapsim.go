// Package heapsim simulates the dynamic-storage allocators the paper
// compares (§5) and the ones the tournament ranks against them. Seven
// simulators, listed in Names and built by New:
//
//   - firstfit: Knuth's first fit with the roving-pointer enhancement
//     (Algorithm A with A4', i.e. next fit) over a boundary-tag heap:
//     O(1) coalescing on free and sbrk-style growth. The paper's
//     baseline.
//   - bestfit: the same boundary-tag heap (the FirstFit type) with a
//     search that scans the whole free list for the tightest fit. The
//     two share extend, split, commit, free, coalesce and walk; only the
//     search step differs.
//   - bsd: the 4.2BSD (Kingsley) power-of-two segregated free-list
//     malloc, which never splits or coalesces. Used in the Table 9 CPU
//     comparison.
//   - arena: the paper's lifetime-predicting allocator: a small set of
//     fixed-size arenas for predicted-short-lived objects (bump-pointer
//     allocation, per-arena live counts, arena reuse when a count drops
//     to zero).
//   - segfit: a tcmalloc-style segregated size-class/slab allocator.
//   - sitearena: arenas pooled per predicted site, with online demotion
//     of sites whose objects pin their pool.
//   - custom: a CUSTOMALLOC-style allocator with exact-fit free lists
//     for the profiled hot sizes.
//
// The three composites (arena, sitearena, custom) send everything they
// do not place themselves to the same first-fit general heap, as the
// paper's arena allocator does ("as if it were long-lived"). One
// unexported type, fallback, holds that heap for all three: its
// allocation and free accounting, the merge of its first-fit counters
// into the composite's Counts, the composite's name, and the check that
// an id is live in neither layer before it is placed in either.
//
// The three segregated-list simulators (bsd, segfit and custom's hot
// sizes) share one unexported heap in the same way, slabHeap: a LIFO
// free list per size class, refilled by carving a page-rounded slab at
// the heap's end, one live index and one walker. Each simulator keeps
// only its class function (a power-of-two bucket, an entry of the
// segregated-fit class table or a page-rounded large chunk, a rounded
// hot size), its operation counts and its metrics. Live chunks, free
// chunks and slab tails tile each of their windows.
//
// The two arena simulators (arena, sitearena) share one unexported
// bump-pointer area the same way, arenaArea: every arena in one flat
// slice, grouped into pools (arena's one pool of 16, a pool per hash
// bucket for sitearena), the bump, the ring hunt within a pool, the
// spill to the general heap, the count-decrement free, one live index,
// the synthetic addresses and one walker. Arena keeps only its pinned
// gauge; SiteArena keeps its pool per bucket, each arena's owning sites
// in placement order, and its strikes against each site.
//
// Every simulator refuses a request that is not positive or is larger
// than 2^40 bytes less one 8KB growth chunk, and every first-fit heap
// refuses to grow past 2^40, where the arena window begins, so no general
// heap grows into another window.
//
// The simulators model the *address space and operation counts*, not the
// bytes themselves: objects are identified by trace object ids, and every
// allocator reports OpCounts from which the instruction cost model
// (internal/costmodel) computes Table 9's per-operation instruction
// averages, as well as heap-size statistics for Table 8.
package heapsim

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Allocator is the common simulator interface. PredictedShort is ignored
// by allocators that do not use lifetime prediction.
type Allocator interface {
	// Alloc places an object. The same id must not be live twice.
	Alloc(id trace.ObjectID, size int64, predictedShort bool) error
	// Free releases a live object.
	Free(id trace.ObjectID) error
	// HeapSize returns the current total address-space footprint in
	// bytes, and MaxHeapSize the high-water mark.
	HeapSize() int64
	MaxHeapSize() int64
	// Counts returns the accumulated operation counts.
	Counts() OpCounts
	// Addr reports the address at which a live object's payload was
	// placed (for locality modeling) and whether the object is live.
	Addr(id trace.ObjectID) (int64, bool)
}

// OpCounts accumulates the operation-level events the cost model prices.
type OpCounts struct {
	Allocs int64
	Frees  int64

	// First-fit search behaviour.
	FFAllocs    int64 // allocations served by the first-fit heap
	FFFrees     int64
	FFProbes    int64 // free blocks examined across all searches
	FFExtends   int64 // heap extensions
	FFSplits    int64
	FFCoalesces int64 // neighbor merges performed by free

	// BSD behaviour.
	BSDCarves    int64 // page carves (free list refills)
	BSDBucketSum int64 // sum of bucket indices, for size-dependent cost

	// Segregated-fit behaviour.
	SegCarves int64 // slab carves (class free-list refills)

	// Arena behaviour.
	PredChecks     int64 // prediction lookups performed (every alloc)
	ArenaAllocs    int64 // bump allocations into an arena
	ArenaFrees     int64 // frees that only decremented a count
	ArenaResets    int64 // arena reuses (count reached 0 and reselected)
	ArenaScanSteps int64 // arenas examined while hunting a free arena
	ArenaFallbacks int64 // predicted-short allocs that fell back to the heap
	ArenaDemotions int64 // sites whose prediction was revoked online
	ArenaBytes     int64 // payload bytes placed in arenas
	GeneralBytes   int64 // payload bytes placed in the general heap
}

// Observable is implemented by simulators that can stream metrics and
// structured events into an obs.Collector. Attaching a nil collector
// detaches observation; the disabled path costs one pointer compare per
// hook. core.RunSim attaches its optional collector through this
// interface, so custom Allocator implementations opt in by implementing
// it.
type Observable interface {
	Observe(*obs.Collector)
}

// Names lists every simulator New builds, in report order.
var Names = []string{"firstfit", "bestfit", "bsd", "arena", "segfit", "sitearena", "custom"}

// New builds a fresh simulator by name. hot gives custom its hot request
// sizes; the other simulators ignore it.
func New(name string, hot []int64) (Allocator, error) {
	switch name {
	case "firstfit":
		return NewFirstFit(), nil
	case "bestfit":
		return NewBestFit(), nil
	case "bsd":
		return NewBSD(), nil
	case "arena":
		return NewArena(), nil
	case "segfit":
		return NewSegFit(), nil
	case "sitearena":
		return NewSiteArena(), nil
	case "custom":
		return NewCustom(hot), nil
	}
	return nil, fmt.Errorf("heapsim: unknown allocator %q (want %s)", name, strings.Join(Names, ", "))
}

// errors shared by the simulators. Each carries the allocator's name so
// multi-allocator comparison runs report which simulator rejected the
// event.
func errDoubleAlloc(alloc string, id trace.ObjectID) error {
	return fmt.Errorf("heapsim: %s: object %d allocated while already live", alloc, id)
}

// maxRequest is the largest request any simulator accepts: the most a
// fresh first-fit heap can hold below ArenaBase, the lowest window above
// it, where every first-fit heap stops growing. It also keeps BSD's
// power-of-two chunks from overflowing.
const maxRequest = ArenaBase - ffChunk

// checkSize refuses a request no simulator places: a size that is not
// positive or is above maxRequest.
func checkSize(size int64) error {
	if size <= 0 || size > maxRequest {
		return errSize(size)
	}
	return nil
}

func errSize(size int64) error {
	return fmt.Errorf("heapsim: allocation size %d outside [1, %d]", size, int64(maxRequest))
}

func errHeapFull(alloc string, size int64) error {
	return fmt.Errorf("heapsim: %s: no room for %d bytes below the heap's 2^40-byte limit", alloc, size)
}

func errUnknownFree(alloc string, id trace.ObjectID) error {
	return fmt.Errorf("heapsim: %s: free of unknown object %d", alloc, id)
}

func align(n, a int64) int64 { return (n + a - 1) / a * a }
