package costmodel

import (
	"math"
	"testing"

	"repro/internal/heapsim"
)

func TestBSDCost(t *testing.T) {
	c := heapsim.OpCounts{Allocs: 100, Frees: 100, BSDBucketSum: 500, BSDCarves: 2}
	po := BSD(c)
	// 42 + 2*5 + 40*0.02 = 52.8
	if math.Abs(po.Alloc-52.8) > 1e-9 {
		t.Errorf("BSD alloc = %v, want 52.8", po.Alloc)
	}
	if po.Free != 17 {
		t.Errorf("BSD free = %v, want 17", po.Free)
	}
	if math.Abs(po.Total()-69.8) > 1e-9 {
		t.Errorf("BSD total = %v", po.Total())
	}
}

func TestFirstFitCostGrowsWithProbes(t *testing.T) {
	base := heapsim.OpCounts{Allocs: 100, FFAllocs: 100, Frees: 100, FFFrees: 100, FFProbes: 200}
	frag := base
	frag.FFProbes = 2000
	a := FirstFit(base).Alloc
	b := FirstFit(frag).Alloc
	if b <= a {
		t.Fatalf("more probes should cost more: %v vs %v", a, b)
	}
	// Sanity: with ~4 probes/alloc the paper-range 50-60 should appear.
	mid := heapsim.OpCounts{Allocs: 100, FFAllocs: 100, Frees: 100, FFFrees: 100,
		FFProbes: 400, FFSplits: 50, FFCoalesces: 80}
	po := FirstFit(mid)
	if po.Alloc < 40 || po.Alloc > 80 {
		t.Errorf("first-fit alloc %v outside the plausible band", po.Alloc)
	}
	if po.Free < 50 || po.Free > 70 {
		t.Errorf("first-fit free %v outside the plausible band", po.Free)
	}
}

func TestArenaLen4MostlyArena(t *testing.T) {
	// 98% arena allocations, cheap frees: the GAWK regime. Expect
	// roughly the paper's 29 alloc / 11 free.
	c := heapsim.OpCounts{
		Allocs: 1000, Frees: 1000,
		ArenaAllocs: 980, ArenaFrees: 980, ArenaResets: 12, ArenaScanSteps: 24,
		FFAllocs: 20, FFFrees: 20, FFProbes: 80, FFSplits: 10, FFCoalesces: 15,
	}
	po := ArenaLen4(c)
	if po.Alloc < 24 || po.Alloc > 34 {
		t.Errorf("arena len-4 alloc = %v, want ~29", po.Alloc)
	}
	if po.Free < 8 || po.Free > 14 {
		t.Errorf("arena len-4 free = %v, want ~11", po.Free)
	}
}

func TestArenaLen4PollutedIsExpensive(t *testing.T) {
	// The CFRAC regime: almost everything falls back to a fragmented
	// first-fit heap after paying for prediction and a failed scan.
	c := heapsim.OpCounts{
		Allocs: 1000, Frees: 1000,
		ArenaAllocs: 26, ArenaFrees: 26, ArenaScanSteps: 16 * 900, ArenaFallbacks: 900,
		FFAllocs: 974, FFFrees: 974, FFProbes: 974 * 10, FFSplits: 500, FFCoalesces: 700,
	}
	po := ArenaLen4(c)
	if po.Alloc < 120 {
		t.Errorf("polluted arena alloc = %v, want > 120 (paper: 134)", po.Alloc)
	}
	ff := FirstFit(heapsim.OpCounts{
		Allocs: 1000, FFAllocs: 1000, Frees: 1000, FFFrees: 1000,
		FFProbes: 6000, FFSplits: 500, FFCoalesces: 700,
	})
	if po.Alloc <= ff.Alloc {
		t.Errorf("polluted arena (%v) should cost more than plain first-fit (%v)",
			po.Alloc, ff.Alloc)
	}
}

func TestArenaCCEAmortization(t *testing.T) {
	c := heapsim.OpCounts{Allocs: 1000, Frees: 1000, ArenaAllocs: 1000, ArenaFrees: 1000}
	len4 := ArenaLen4(c)
	// Paper: delta(cce - len4) = 3*callsPerAlloc - 10.
	for _, cpa := range []float64{5.3, 16, 31} {
		cce := ArenaCCE(c, cpa)
		wantDelta := 3*cpa - 10
		gotDelta := cce.Alloc - len4.Alloc
		if math.Abs(gotDelta-wantDelta) > 1e-9 {
			t.Errorf("cpa=%v: delta = %v, want %v", cpa, gotDelta, wantDelta)
		}
		if cce.Free != len4.Free {
			t.Errorf("cce free %v != len4 free %v", cce.Free, len4.Free)
		}
	}
}

func TestZeroCountsSafe(t *testing.T) {
	var c heapsim.OpCounts
	for _, po := range []PerOp{BSD(c), FirstFit(c), ArenaLen4(c), ArenaCCE(c, 5)} {
		if math.IsNaN(po.Alloc) || math.IsNaN(po.Free) {
			t.Fatal("NaN cost on zero counts")
		}
	}
}
