package core

import (
	"repro/internal/gcsim"
	"repro/internal/heapsim"
	"repro/internal/profile"
)

// This file holds the ablation experiments over the design parameters
// DESIGN.md §5 calls out. They have no direct counterpart table in the
// paper, but each probes a choice the paper discusses in prose: the 32KB
// threshold ("how short is short-lived?"), the all-short admission rule
// ("how large should this percentage be?"), the 16x4KB arena blocking,
// the first-fit search policy, call-chain encryption as a *predictor*
// rather than just a cost, and the generational-collector claim.

// ThresholdRow reports self prediction under one short-lived threshold.
type ThresholdRow struct {
	ThresholdKB int64
	PredPct     float64
	SitesUsed   int
	ActualPct   float64
}

// ThresholdSweep varies the short-lived threshold (paper §4.1).
func (c Config) ThresholdSweep(a *Artifacts, thresholdsKB []int64) []ThresholdRow {
	out := make([]ThresholdRow, 0, len(thresholdsKB))
	for _, kb := range thresholdsKB {
		cfg := c.Profile
		cfg.ShortThreshold = kb << 10
		ev := profile.EvaluateObjects(a.TrainTrace.Table, a.TrainObjs, a.trainDB(cfg).Predictor())
		out = append(out, ThresholdRow{
			ThresholdKB: kb,
			PredPct:     ev.PredictedShortPct(),
			SitesUsed:   ev.SitesUsed,
			ActualPct:   ev.ActualShortPct(),
		})
	}
	return out
}

// AdmitRow reports prediction quality under a relaxed admission rule.
type AdmitRow struct {
	AdmitFraction float64
	SelfPredPct   float64
	TruePredPct   float64
	TrueErrorPct  float64
}

// AdmitSweep relaxes the all-short admission rule (paper §4.1 discusses
// the trade-off: cheaper misprediction would permit lower fractions).
func (c Config) AdmitSweep(a *Artifacts, fractions []float64) []AdmitRow {
	out := make([]AdmitRow, 0, len(fractions))
	for _, f := range fractions {
		cfg := c.Profile
		cfg.AdmitFraction = f
		p := a.trainDB(cfg).Predictor()
		self := profile.EvaluateObjects(a.TrainTrace.Table, a.TrainObjs, p)
		tru := profile.EvaluateObjects(a.TestTrace.Table, a.TestObjs, p)
		out = append(out, AdmitRow{
			AdmitFraction: f,
			SelfPredPct:   self.PredictedShortPct(),
			TruePredPct:   tru.PredictedShortPct(),
			TrueErrorPct:  tru.ErrorPct(),
		})
	}
	return out
}

// GeometryRow reports an arena-geometry simulation at fixed 64KB total.
type GeometryRow struct {
	NumArenas     int
	ArenaSizeKB   int64
	ArenaAllocPct float64
	PinnedArenas  int
	Fallbacks     int64
}

// ArenaGeometrySweep varies arena count x size at a fixed total area (the
// paper motivates 16x4KB blocking: "this blocking reduces the space
// consumed by erroneously predicted long-lived objects").
func (c Config) ArenaGeometrySweep(a *Artifacts, geometries [][2]int) ([]GeometryRow, error) {
	out := make([]GeometryRow, 0, len(geometries))
	for _, g := range geometries {
		ar := heapsim.NewArenaGeometry(g[0], int64(g[1])<<10)
		res, err := RunSim(a.TestTrace, ar, a.TrainPredictor)
		if err != nil {
			return nil, err
		}
		out = append(out, GeometryRow{
			NumArenas:     g[0],
			ArenaSizeKB:   int64(g[1]),
			ArenaAllocPct: res.ArenaAllocPct,
			PinnedArenas:  res.PinnedArenas,
			Fallbacks:     res.Counts.ArenaFallbacks,
		})
	}
	return out, nil
}

// FitRow compares free-list policies on the same trace.
type FitRow struct {
	Policy      string
	MaxHeapKB   int64
	ProbesPerOp float64
}

// FitPolicySweep compares Knuth's A4' next fit, the K&R rover-on-free
// variant, and best fit on the Test input.
func (c Config) FitPolicySweep(a *Artifacts) ([]FitRow, error) {
	mk := []struct {
		name  string
		alloc heapsim.Allocator
	}{
		{"next-fit (A4')", heapsim.NewFirstFit()},
		{"rover-on-free (K&R)", func() heapsim.Allocator {
			ff := heapsim.NewFirstFit()
			ff.RoverOnFree = true
			return ff
		}()},
		{"best-fit", heapsim.NewBestFit()},
	}
	out := make([]FitRow, 0, len(mk))
	for _, m := range mk {
		res, err := RunSim(a.TestTrace, m.alloc, nil)
		if err != nil {
			return nil, err
		}
		probes := 0.0
		if res.Counts.FFAllocs > 0 {
			probes = float64(res.Counts.FFProbes) / float64(res.Counts.FFAllocs)
		}
		out = append(out, FitRow{
			Policy:      m.name,
			MaxHeapKB:   res.MaxHeap >> 10,
			ProbesPerOp: probes,
		})
	}
	return out, nil
}

// CCERow compares the exact site predictor against the call-chain
// encryption predictor trained on the same input (self prediction).
type CCERow struct {
	ExactPredPct  float64
	CCEPredPct    float64
	KeyCollisions int
	ExactSites    int
	CCESites      int
}

// CCEQuality measures how much prediction the XOR-key scheme loses to
// collisions and order-insensitivity.
func (c Config) CCEQuality(a *Artifacts) CCERow {
	exact := a.TrainPredictor
	exactEv := profile.EvaluateObjects(a.TrainTrace.Table, a.TrainObjs, exact)

	cce, collisions := profile.TrainCCE(a.TrainTrace.Table, a.TrainObjs, c.Profile, c.SeedBase)
	cceEv := profile.EvaluateCCE(a.TrainObjs, cce)
	return CCERow{
		ExactPredPct:  exactEv.PredictedShortPct(),
		CCEPredPct:    cceEv.PredictedShortPct(),
		KeyCollisions: collisions,
		ExactSites:    exact.NumSites(),
		CCESites:      cce.NumSites(),
	}
}

// GCRow compares the generational collector with and without pretenuring.
type GCRow struct {
	BaseCopiedKB int64
	PreCopiedKB  int64
	Pretenured   int64
	MinorGCs     int64
}

// GCPretenuring quantifies the paper's generational-collection claim on
// the Test input with true prediction.
func (c Config) GCPretenuring(a *Artifacts) (GCRow, error) {
	base, err := gcsim.Run(a.TestTrace, gcsim.DefaultConfig(), nil)
	if err != nil {
		return GCRow{}, err
	}
	pre, err := gcsim.Run(a.TestTrace, gcsim.DefaultConfig(), a.TrainPredictor)
	if err != nil {
		return GCRow{}, err
	}
	return GCRow{
		BaseCopiedKB: base.CopiedBytes() >> 10,
		PreCopiedKB:  pre.CopiedBytes() >> 10,
		Pretenured:   pre.Pretenured,
		MinorGCs:     pre.MinorGCs,
	}, nil
}

// CustomRow contrasts a CUSTOMALLOC-style profile-synthesized allocator
// (the paper's reference [9]: fast per-size free lists, no lifetime
// prediction) with the lifetime-predicting arena allocator on the Test
// input.
type CustomRow struct {
	CustomFastPct  float64 // allocations on the synthesized fast path
	CustomHeapKB   int64
	ArenaAllocPct  float64
	ArenaHeapKB    int64
	FirstFitHeapKB int64
}

// CustomAllocComparison trains the size profile on the Train input (top 16
// sizes) and simulates both optimized allocators.
//
// Finding (recorded in EXPERIMENTS.md): in these workloads CUSTOMALLOC's
// per-size segregation also removes most fragmentation — size segregation
// approximates lifetime segregation, which is exactly Boehm & Weiser's
// observation quoted in the paper's related work ("uses size to segregate
// objects... memory overhead would be improved if living objects were
// segregated from dead objects"). The models quantize request sizes more
// than 1993 C programs did, which flatters the size-only approach; the
// paper's Table 5 shows real size-lifetime correlation was weak. The
// arena allocator's remaining advantages are the O(1) count-decrement
// free and the bounded 64KB footprint for short-lived data.
func (c Config) CustomAllocComparison(a *Artifacts) (CustomRow, error) {
	sizes := a.TrainDB.TopSizes(16)
	custom := heapsim.NewCustom(sizes)
	cRes, err := RunSim(a.TestTrace, custom, nil)
	if err != nil {
		return CustomRow{}, err
	}
	arRes, err := RunSim(a.TestTrace, heapsim.NewArena(), a.TrainPredictor)
	if err != nil {
		return CustomRow{}, err
	}
	ffRes, err := RunSim(a.TestTrace, heapsim.NewFirstFit(), nil)
	if err != nil {
		return CustomRow{}, err
	}
	return CustomRow{
		CustomFastPct:  100 * custom.FastPathFrac(),
		CustomHeapKB:   cRes.MaxHeap >> 10,
		ArenaAllocPct:  arRes.ArenaAllocPct,
		ArenaHeapKB:    arRes.MaxHeap >> 10,
		FirstFitHeapKB: ffRes.MaxHeap >> 10,
	}, nil
}

// SiteArenaRow contrasts the shared-arena design with per-site pools
// under true prediction.
type SiteArenaRow struct {
	SharedAllocPct float64
	SitedAllocPct  float64
	SharedHeapKB   int64
	SitedHeapKB    int64
	PinnedPools    int
}

// SiteArenaComparison runs both arena designs on the Test input. Per-site
// pools isolate misprediction pollution (CFRAC recovers from ~1% to its
// full predicted fraction) at the cost of an arena area that grows with
// the number of hot sites.
func (c Config) SiteArenaComparison(a *Artifacts) (SiteArenaRow, error) {
	shared, err := RunSim(a.TestTrace, heapsim.NewArena(), a.TrainPredictor)
	if err != nil {
		return SiteArenaRow{}, err
	}
	sited, err := RunSim(a.TestTrace, heapsim.NewSiteArena(), a.TrainPredictor)
	if err != nil {
		return SiteArenaRow{}, err
	}
	return SiteArenaRow{
		SharedAllocPct: shared.ArenaAllocPct,
		SitedAllocPct:  sited.ArenaAllocPct,
		SharedHeapKB:   shared.MaxHeap >> 10,
		SitedHeapKB:    sited.MaxHeap >> 10,
		PinnedPools:    sited.PinnedArenas,
	}, nil
}
