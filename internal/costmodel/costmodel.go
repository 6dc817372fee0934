// Package costmodel converts allocator operation counts into per-operation
// instruction averages, reproducing the paper's Table 9 methodology: "The
// numbers for the Arena algorithms were computed using operation counts
// (e.g., allocations, frees, etc), multiplying them by the estimated cost
// per operation."
//
// Fixed per-operation instruction estimates are anchored to the paper's
// published SPARC numbers: 18 instructions to predict a lifetime via the
// length-4 call-chain (10 of which compute the chain), 3 instructions per
// function call for call-chain encryption, and the QP-measured BSD and
// first-fit baselines (BSD free 17; first-fit alloc 56-165 depending on
// search length). Search-dependent costs (first-fit probes, arena scans)
// come from the simulator's measured counts.
package costmodel

import "repro/internal/heapsim"

// The per-operation instruction estimates.
const (
	// Lifetime prediction (paper §5.1).
	predictLen4    = 18 // full length-4 site check: 10 chain + 8 lookup
	predictCCEBase = 8  // CCE site check when the key is maintained per call
	ccePerCall     = 3  // per-function-call key maintenance

	// Arena operations.
	arenaBump     = 8 // bump-pointer allocation: space check + add + count
	arenaFree     = 9 // address-range check + count decrement
	arenaScanStep = 3 // per-arena examined while hunting a zero count
	arenaReset    = 6 // resetting a reusable arena

	// First-fit (Knuth) operations.
	ffAllocBase = 30 // header setup, list entry
	ffProbe     = 6  // per free block examined
	ffSplit     = 6  // splitting a block
	ffExtend    = 60 // sbrk path
	ffFreeBase  = 52 // boundary-tag free
	ffCoalesce  = 8  // per neighbor merge

	// BSD (power-of-two) operations.
	bsdAllocBase = 42 // list pop + bookkeeping
	bsdPerBucket = 2  // bucket-computation shift loop, per index step
	bsdCarve     = 40 // slab carve when a list is empty
	bsdFree      = 17 // push on bucket list (paper: 17)
)

// PerOp is an instructions-per-operation summary: one Table 9 cell group.
type PerOp struct {
	Alloc float64 // instructions per allocation
	Free  float64 // instructions per free
}

// Total returns alloc + free (the paper's "a+f" column).
func (p PerOp) Total() float64 { return p.Alloc + p.Free }

func safeDiv(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// BSD prices a BSD-malloc run from its operation counts.
func BSD(c heapsim.OpCounts) PerOp {
	alloc := bsdAllocBase +
		bsdPerBucket*safeDiv(c.BSDBucketSum, c.Allocs) +
		bsdCarve*safeDiv(c.BSDCarves, c.Allocs)
	return PerOp{Alloc: alloc, Free: bsdFree}
}

// FirstFit prices a first-fit run from its operation counts.
func FirstFit(c heapsim.OpCounts) PerOp {
	alloc := ffAllocBase +
		ffProbe*safeDiv(c.FFProbes, c.FFAllocs) +
		ffSplit*safeDiv(c.FFSplits, c.FFAllocs) +
		ffExtend*safeDiv(c.FFExtends, c.FFAllocs)
	free := ffFreeBase +
		ffCoalesce*safeDiv(c.FFCoalesces, c.FFFrees)
	return PerOp{Alloc: alloc, Free: free}
}

// arena prices the shared (non-prediction) part of an arena run: bump
// allocations, scans, resets, and the first-fit costs of the general heap,
// averaged over all operations.
func arena(c heapsim.OpCounts) PerOp {
	if c.Allocs == 0 {
		return PerOp{}
	}
	// Work done by arena-path allocations.
	arenaWork := c.ArenaAllocs*arenaBump +
		c.ArenaScanSteps*arenaScanStep +
		c.ArenaResets*arenaReset
	// Work done by general-heap allocations (the first-fit path).
	ffAlloc := c.FFAllocs*ffAllocBase +
		c.FFProbes*ffProbe +
		c.FFSplits*ffSplit +
		c.FFExtends*ffExtend
	alloc := float64(arenaWork+ffAlloc) / float64(c.Allocs)

	free := 0.0
	if c.Frees > 0 {
		ffFree := c.FFFrees*ffFreeBase + c.FFCoalesces*ffCoalesce
		free = float64(c.ArenaFrees*arenaFree+ffFree) / float64(c.Frees)
	}
	return PerOp{Alloc: alloc, Free: free}
}

// ArenaLen4 prices an arena-allocator run whose prediction uses the
// length-4 call-chain computed at each allocation.
func ArenaLen4(c heapsim.OpCounts) PerOp {
	po := arena(c)
	po.Alloc += predictLen4
	return po
}

// ArenaCCE prices an arena-allocator run whose prediction uses call-chain
// encryption: the per-call key maintenance (3 instructions x function
// calls) is charged per allocation, as the paper does ("factoring the
// per-call call-chain encryption as a per-allocation cost").
func ArenaCCE(c heapsim.OpCounts, callsPerAlloc float64) PerOp {
	po := arena(c)
	po.Alloc += predictCCEBase + ccePerCall*callsPerAlloc
	return po
}
