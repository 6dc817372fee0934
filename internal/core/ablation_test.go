package core

import (
	"testing"

	"repro/internal/heapsim"
	"repro/internal/synth"
)

func TestThresholdSweepMonotone(t *testing.T) {
	a := buildArtifacts(t, "ghost")
	rows := DefaultConfig(testScale).ThresholdSweep(a, []int64{8, 16, 32, 64, 128})
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// Raising the threshold can only admit more (or equal) volume: the
	// degenerate case of the maximum lifetime predicts everything
	// (paper §4.1).
	for i := 1; i < len(rows); i++ {
		if rows[i].PredPct+1e-9 < rows[i-1].PredPct {
			t.Fatalf("prediction decreased with threshold: %+v", rows)
		}
	}
	if rows[4].PredPct <= rows[0].PredPct {
		t.Fatal("threshold sweep is flat; workload insensitive to the parameter")
	}
}

func TestAdmitSweepErrorGrows(t *testing.T) {
	a := buildArtifacts(t, "cfrac")
	rows := DefaultConfig(testScale).AdmitSweep(a, []float64{1.0, 0.95, 0.9})
	// Relaxing admission admits mixed sites: self prediction rises...
	if rows[2].SelfPredPct < rows[0].SelfPredPct {
		t.Fatalf("relaxed admission predicted less: %+v", rows)
	}
	// ...and true-prediction error cannot shrink.
	if rows[2].TrueErrorPct+1e-9 < rows[0].TrueErrorPct {
		t.Fatalf("relaxed admission reduced error: %+v", rows)
	}
}

func TestArenaGeometryBlockingHelps(t *testing.T) {
	// CFRAC's pollution: a single 64KB arena pins entirely; 16x4KB keeps
	// a trickle of arena allocations alive (the paper's blocking
	// motivation).
	a := buildArtifacts(t, "cfrac")
	rows, err := DefaultConfig(testScale).ArenaGeometrySweep(a, [][2]int{{1, 64}, {16, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].ArenaAllocPct < rows[0].ArenaAllocPct {
		t.Fatalf("blocking did not help under pollution: %+v", rows)
	}
}

func TestFitPolicySweep(t *testing.T) {
	a := buildArtifacts(t, "ghost")
	rows, err := DefaultConfig(testScale).FitPolicySweep(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]FitRow{}
	for _, r := range rows {
		byName[r.Policy] = r
		if r.MaxHeapKB <= 0 {
			t.Fatalf("empty row %+v", r)
		}
	}
	// Best fit packs at least as tightly as next fit on ghost.
	if byName["best-fit"].MaxHeapKB > byName["next-fit (A4')"].MaxHeapKB {
		t.Fatalf("best fit looser than next fit: %+v", rows)
	}
}

func TestCCEQualityClose(t *testing.T) {
	// CCE tracks the exact predictor closely. It may even predict
	// slightly MORE: XOR keys cancel even recursion instead of merging
	// the chain into a long-lived partner's (the recursion-merge sites
	// of ESPRESSO and PERL stay separated under CCE).
	a := buildArtifacts(t, "gawk")
	row := DefaultConfig(testScale).CCEQuality(a)
	if row.CCEPredPct < row.ExactPredPct*0.8 {
		t.Fatalf("CCE lost too much to collisions: %+v", row)
	}
	if row.CCEPredPct > row.ExactPredPct+10 {
		t.Fatalf("CCE predicted implausibly more than exact: %+v", row)
	}
}

func TestGCPretenuringReducesCopy(t *testing.T) {
	a := buildArtifacts(t, "gawk")
	row, err := DefaultConfig(testScale).GCPretenuring(a)
	if err != nil {
		t.Fatal(err)
	}
	if row.PreCopiedKB > row.BaseCopiedKB {
		t.Fatalf("pretenuring increased copying: %+v", row)
	}
}

func TestAblationsAcrossModels(t *testing.T) {
	// Smoke: every ablation runs on every model without error.
	if testing.Short() {
		t.Skip("smoke sweep skipped in -short mode")
	}
	cfg := DefaultConfig(testScale)
	for _, m := range synth.All() {
		a, err := cfg.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		cfg.ThresholdSweep(a, []int64{16, 32})
		cfg.AdmitSweep(a, []float64{1.0, 0.95})
		if _, err := cfg.ArenaGeometrySweep(a, [][2]int{{16, 4}}); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if _, err := cfg.FitPolicySweep(a); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		cfg.CCEQuality(a)
		if _, err := cfg.GCPretenuring(a); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
	}
}

func TestCustomAllocComparison(t *testing.T) {
	a := buildArtifacts(t, "ghost")
	row, err := DefaultConfig(testScale).CustomAllocComparison(a)
	if err != nil {
		t.Fatal(err)
	}
	// Size coverage is easy: the fast path should carry most allocs.
	if row.CustomFastPct < 50 {
		t.Fatalf("custom fast path only %.1f%%", row.CustomFastPct)
	}
	// Per-size segregation removes churn from the general heap too, so
	// on GHOST it must beat plain first-fit (size segregation
	// approximates lifetime segregation — see the method's doc comment).
	if row.CustomHeapKB >= row.FirstFitHeapKB {
		t.Fatalf("customalloc heap %dKB not below first-fit %dKB",
			row.CustomHeapKB, row.FirstFitHeapKB)
	}
}

func TestSiteArenaIsolatesCfracPollution(t *testing.T) {
	// The shared 16x4KB arena collapses under CFRAC's mispredictions
	// (Table 7); giving each site its own pool confines the damage to
	// the polluting site and the rest of the predicted volume keeps
	// bump-allocating.
	a := buildArtifacts(t, "cfrac")
	shared, err := RunSim(a.TestTrace, heapsim.NewArena(), a.TrainPredictor)
	if err != nil {
		t.Fatal(err)
	}
	// Bounded variant: 64 hash buckets + online demotion. A moderate
	// but consistent recovery at the shared design's memory scale.
	bounded, err := RunSim(a.TestTrace, heapsim.NewSiteArena(), a.TrainPredictor)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.ArenaAllocPct < 1.3*shared.ArenaAllocPct {
		t.Fatalf("bounded site arenas did not recover cfrac: shared %.1f%%, bounded %.1f%%",
			shared.ArenaAllocPct, bounded.ArenaAllocPct)
	}
	if bounded.Counts.ArenaDemotions == 0 {
		t.Fatal("no polluting sites were demoted online")
	}
	// Unbounded per-site pools isolate pollution fully — CFRAC recovers
	// most of its predicted fraction — at a memory cost that grows with
	// the number of hot sites.
	unboundedSA := heapsim.NewSiteArenaGeometry(2, 4<<10, 1<<20)
	unbounded, err := RunSim(a.TestTrace, unboundedSA, a.TrainPredictor)
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.ArenaAllocPct < 4*shared.ArenaAllocPct {
		t.Fatalf("unbounded site arenas did not recover cfrac: shared %.1f%%, unbounded %.1f%%",
			shared.ArenaAllocPct, unbounded.ArenaAllocPct)
	}
	t.Logf("shared %.1f%%, bounded %.1f%% (demotions %d), unbounded %.1f%% (heap %dKB vs %dKB vs %dKB)",
		shared.ArenaAllocPct, bounded.ArenaAllocPct, bounded.Counts.ArenaDemotions,
		unbounded.ArenaAllocPct, shared.MaxHeap>>10, bounded.MaxHeap>>10, unbounded.MaxHeap>>10)
}
