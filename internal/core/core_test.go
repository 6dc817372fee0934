package core

import (
	"testing"

	"repro/internal/heapsim"
	"repro/internal/profile"
	"repro/internal/synth"
)

// testScale keeps core tests fast; shape assertions are tolerant.
const testScale = 0.02

func buildArtifacts(t *testing.T, name string) *Artifacts {
	t.Helper()
	cfg := DefaultConfig(testScale)
	m := synth.ByName(name)
	if m == nil {
		t.Fatalf("unknown model %s", name)
	}
	a, err := cfg.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBuildArtifacts(t *testing.T) {
	a := buildArtifacts(t, "gawk")
	if len(a.TrainObjs) == 0 || len(a.TestObjs) == 0 {
		t.Fatal("empty annotations")
	}
	if a.TrainPredictor.NumSites() == 0 {
		t.Fatal("no predictor sites trained")
	}
	// Every consumer of the build's configuration shares TrainDB, and one
	// that differs only in its admission fraction shares TrainDB's sites;
	// any other configuration trains its own database.
	if db := a.trainDB(a.TrainDB.Config); db != a.TrainDB {
		t.Error("trainDB retrained the build's configuration")
	}
	admit := a.TrainDB.Config
	admit.AdmitFraction = 0.95
	sharesSites := func(db *profile.DB) bool {
		for k, st := range a.TrainDB.Sites {
			return db.Sites[k] == st
		}
		return false
	}
	db := a.trainDB(admit)
	if db == a.TrainDB || db.Config != admit || !sharesSites(db) {
		t.Errorf("trainDB(AdmitFraction 0.95) did not share TrainDB's sites: got a database under %+v", db.Config)
	}
	fresh := profile.TrainObjects(a.TrainTrace.Table, a.TrainObjs, admit).Predictor().NumSites()
	if got := db.Predictor().NumSites(); got != fresh {
		t.Errorf("trainDB(AdmitFraction 0.95) admits %d sites, a fresh training %d", got, fresh)
	}
	other := a.TrainDB.Config
	other.ChainLength = 3
	if db := a.trainDB(other); db == a.TrainDB || db.Config != other || sharesSites(db) {
		t.Errorf("trainDB(ChainLength 3) did not train afresh: got a database under %+v", db.Config)
	}
}

func TestRunSimFirstFitAccounting(t *testing.T) {
	a := buildArtifacts(t, "perl")
	res, err := RunSim(a.TestTrace, heapsim.NewFirstFit(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAllocs == 0 || res.MaxHeap == 0 {
		t.Fatalf("empty sim result: %+v", res)
	}
	if res.ArenaAllocPct != 0 {
		t.Fatal("first-fit reported arena allocations")
	}
	if res.Counts.FFAllocs != res.TotalAllocs {
		t.Fatalf("FFAllocs %d != allocs %d", res.Counts.FFAllocs, res.TotalAllocs)
	}
}

// TestRunSimRoutesSiteArenaPerSite: RunSim over a SiteArena with a
// trained predictor sends each predicted-short allocation to its own
// site's pool, so the arena area outgrows the single pool a replay that
// keys every object on one pseudo-site would reserve.
func TestRunSimRoutesSiteArenaPerSite(t *testing.T) {
	a := buildArtifacts(t, "gawk")
	sa := heapsim.NewSiteArena()
	res, err := RunSim(a.TestTrace, sa, a.TrainPredictor)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.ArenaAllocs == 0 {
		t.Fatal("no allocation was placed in a site pool")
	}
	const onePool = 2 * 4 << 10 // NewSiteArena's pool: 2 x 4KB
	if sa.ArenaArea() <= onePool {
		t.Errorf("arena area %d bytes fits one site pool (%d bytes): predicted-short objects were not routed per site",
			sa.ArenaArea(), onePool)
	}
}

func TestRunSimArenaUsesPrediction(t *testing.T) {
	a := buildArtifacts(t, "gawk")
	res, err := RunSim(a.TestTrace, heapsim.NewArena(), a.TrainPredictor)
	if err != nil {
		t.Fatal(err)
	}
	// GAWK's true prediction is ~99%: the arena should absorb almost
	// everything.
	if res.ArenaAllocPct < 80 {
		t.Fatalf("gawk arena alloc %% = %.1f, want > 80", res.ArenaAllocPct)
	}
	// Without a predictor, nothing goes to arenas.
	res2, err := RunSim(a.TestTrace, heapsim.NewArena(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ArenaAllocPct != 0 {
		t.Fatal("arena allocated without prediction")
	}
}

func TestTable2Shape(t *testing.T) {
	a := buildArtifacts(t, "cfrac")
	row, err := DefaultConfig(testScale).Table2(a)
	if err != nil {
		t.Fatal(err)
	}
	if row.Program != "cfrac" || row.TotalBytes == 0 || row.MaxBytes == 0 {
		t.Fatalf("bad row: %+v", row)
	}
	if row.HeapRefPct < 70 || row.HeapRefPct > 88 {
		t.Fatalf("cfrac heap refs %.1f, want ~79", row.HeapRefPct)
	}
}

func TestTable3Monotone(t *testing.T) {
	a := buildArtifacts(t, "espresso")
	row := DefaultConfig(testScale).Table3(a)
	for i := 1; i < 5; i++ {
		if row.Quartiles[i] < row.Quartiles[i-1] {
			t.Fatalf("quartiles not monotone: %v", row.Quartiles)
		}
	}
}

func TestTable4SelfBeatsTrueForPerl(t *testing.T) {
	a := buildArtifacts(t, "perl")
	row := DefaultConfig(testScale).Table4(a)
	if row.SelfErrorPct != 0 {
		t.Fatalf("self prediction error %.2f, must be 0 by construction", row.SelfErrorPct)
	}
	if row.TruePredPct >= row.SelfPredPct {
		t.Fatalf("perl true (%.1f) should be far below self (%.1f)",
			row.TruePredPct, row.SelfPredPct)
	}
	if row.TrueErrorPct <= 0 {
		t.Fatal("perl true prediction should show error bytes")
	}
}

func TestTable5SizeOnlyWeaker(t *testing.T) {
	a := buildArtifacts(t, "ghost")
	cfg := DefaultConfig(testScale)
	t4 := cfg.Table4(a)
	t5 := cfg.Table5(a)
	if t5.PredPct >= t4.SelfPredPct {
		t.Fatalf("size-only (%.1f) should predict less than site+size (%.1f)",
			t5.PredPct, t4.SelfPredPct)
	}
}

func TestTable6LadderMonotoneUpToComplete(t *testing.T) {
	a := buildArtifacts(t, "ghost")
	row := DefaultConfig(testScale).Table6(a)
	for i := 1; i < 7; i++ {
		if row.PredPct[i]+1e-9 < row.PredPct[i-1] {
			t.Fatalf("sub-chain ladder decreased at %d: %v", i, row.PredPct)
		}
	}
	if row.PredPct[3] < row.PredPct[2]+10 {
		t.Fatalf("ghost should jump at length 4: %v", row.PredPct)
	}
}

func TestTable6RecursionMergeEspresso(t *testing.T) {
	a := buildArtifacts(t, "espresso")
	row := DefaultConfig(testScale).Table6(a)
	// The complete chain (index 7) predicts less than length-7 (index 6)
	// because recursion elimination merges a short site into a long one.
	if row.PredPct[7] >= row.PredPct[6] {
		t.Fatalf("espresso complete chain (%.1f) should be below length-7 (%.1f)",
			row.PredPct[7], row.PredPct[6])
	}
}

func TestTable7GhostBytesBelowAllocs(t *testing.T) {
	a := buildArtifacts(t, "ghost")
	row, err := DefaultConfig(testScale).Table7(a)
	if err != nil {
		t.Fatal(err)
	}
	// GHOST's 6KB objects cannot enter 4KB arenas: the byte fraction
	// sits far below the object fraction.
	if row.ArenaBytePct >= row.ArenaAllocPct-20 {
		t.Fatalf("ghost arena bytes %.1f vs allocs %.1f: 6KB objects not excluded",
			row.ArenaBytePct, row.ArenaAllocPct)
	}
}

func TestTable7CfracPollution(t *testing.T) {
	a := buildArtifacts(t, "cfrac")
	row, err := DefaultConfig(testScale).Table7(a)
	if err != nil {
		t.Fatal(err)
	}
	// Despite 47% predicted, pollution collapses arena usage.
	if row.ArenaAllocPct > 25 {
		t.Fatalf("cfrac arena allocs %.1f%%, want collapse toward the paper's 2.6%%",
			row.ArenaAllocPct)
	}
}

func TestTable8SmallHeapsPayForArenas(t *testing.T) {
	a := buildArtifacts(t, "gawk")
	row, err := DefaultConfig(testScale).Table8(a)
	if err != nil {
		t.Fatal(err)
	}
	// GAWK's heap is tiny: the 64KB arena area must make the arena
	// allocator's footprint larger than first-fit's.
	if row.TrueRatioPct <= 100 {
		t.Fatalf("gawk arena/first-fit = %.1f%%, want > 100%%", row.TrueRatioPct)
	}
	if row.TrueArenaKB < 64 {
		t.Fatalf("arena heap %dKB below the arena area itself", row.TrueArenaKB)
	}
}

func TestTable9ShapeGawk(t *testing.T) {
	a := buildArtifacts(t, "gawk")
	row, err := DefaultConfig(testScale).Table9(a)
	if err != nil {
		t.Fatal(err)
	}
	// GAWK is the success story: arena len-4 must beat both baselines.
	if row.Len4.Total() >= row.FirstFit.Total() {
		t.Fatalf("gawk len4 total %.1f not below first-fit %.1f",
			row.Len4.Total(), row.FirstFit.Total())
	}
	if row.Len4.Total() >= row.BSD.Total() {
		t.Fatalf("gawk len4 total %.1f not below BSD %.1f",
			row.Len4.Total(), row.BSD.Total())
	}
	// CCE alloc cost is never below len-4 minus the chain cost.
	if row.CCE.Alloc < row.Len4.Alloc-10 {
		t.Fatalf("cce alloc %.1f implausibly below len4 %.1f", row.CCE.Alloc, row.Len4.Alloc)
	}
}

func TestTable9CfracExpensive(t *testing.T) {
	a := buildArtifacts(t, "cfrac")
	row, err := DefaultConfig(testScale).Table9(a)
	if err != nil {
		t.Fatal(err)
	}
	// Pollution makes the arena allocator worse than plain first-fit.
	if row.Len4.Total() <= row.FirstFit.Total() {
		t.Fatalf("cfrac len4 total %.1f should exceed first-fit %.1f",
			row.Len4.Total(), row.FirstFit.Total())
	}
}

func TestLocalityArenaShrinksFootprint(t *testing.T) {
	// The paper's locality claim: short-lived objects end up "in a small
	// part of the heap". GHOST has the heap far larger than any cache;
	// the arena allocator must touch fewer distinct pages. The effect
	// needs a heap well above the 64KB arena area, hence the larger
	// scale here.
	cfg := DefaultConfig(0.1)
	a, err := cfg.Build(synth.ByName("ghost"))
	if err != nil {
		t.Fatal(err)
	}
	row, err := cfg.Locality(a)
	if err != nil {
		t.Fatal(err)
	}
	if row.ArenaPages >= row.FirstFitPages {
		t.Fatalf("arena touched %d pages, first-fit %d: footprint did not shrink",
			row.ArenaPages, row.FirstFitPages)
	}
	if row.ArenaMissPct <= 0 || row.FirstFitMissPct <= 0 {
		t.Fatal("cache replay produced no misses at all")
	}
}

func TestPaperDataComplete(t *testing.T) {
	for _, p := range ProgramOrder {
		if _, ok := PaperTable2[p]; !ok {
			t.Errorf("PaperTable2 missing %s", p)
		}
		if _, ok := PaperTable4[p]; !ok {
			t.Errorf("PaperTable4 missing %s", p)
		}
		if _, ok := PaperTable9[p]; !ok {
			t.Errorf("PaperTable9 missing %s", p)
		}
	}
	if len(ProgramOrder) != 5 {
		t.Fatal("program order must list the paper's five programs")
	}
}

// countedSource is the count-then-stream source MatrixRunner.Run replays:
// a fresh model source that knows its event total up front.
func countedSource(t *testing.T, m *synth.Model, gcfg synth.Config) *synth.Source {
	t.Helper()
	src, err := m.Source(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.CountEvents(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	src.SetCount(n)
	return src
}

func TestRunSimStreamMatchesMaterialized(t *testing.T) {
	m := synth.ByName("perl")
	gcfg := synth.Config{Input: synth.Test, Seed: 77, Scale: 0.01}
	tr, err := m.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(0.01)
	a, err := cfg.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	// Same generation config must yield identical simulation results
	// whether streamed or materialized.
	want, err := RunSim(tr, heapsim.NewFirstFit(), a.TrainPredictor)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSimSource(countedSource(t, m, gcfg), heapsim.NewFirstFit(), a.TrainPredictor)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalAllocs != want.TotalAllocs || got.TotalBytes != want.TotalBytes ||
		got.MaxHeap != want.MaxHeap || got.Counts != want.Counts {
		t.Fatalf("stream/materialized mismatch:\n got %+v\nwant %+v", got, want)
	}
}
