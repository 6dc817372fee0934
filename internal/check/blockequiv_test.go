package check

import (
	"strings"
	"testing"

	"repro/internal/heapsim"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

// TestBlockEquivalenceAcrossModels replays every synthesis model's test
// trace through all seven allocators, block path against the scalar
// oracle, with a trained predictor in play so the pred.* accuracy
// families and sitearena's per-site routing are compared too. This is
// the end-to-end guarantee behind the columnar refactor: batching changed
// the engine's inner loop, not one observable bit of its output.
func TestBlockEquivalenceAcrossModels(t *testing.T) {
	fs, err := Factories()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range synth.All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			trainSrc, err := m.Source(synth.Config{Input: synth.Train, Seed: 7, Scale: 0.005})
			if err != nil {
				t.Fatal(err)
			}
			db, err := profile.TrainSource(trainSrc, profile.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			testSrc, err := m.Source(synth.Config{Input: synth.Test, Seed: 7, Scale: 0.005})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.Collect(testSrc)
			if err != nil {
				t.Fatal(err)
			}
			// A Mapper, unlike the bare Predictor, names each site, so
			// sitearena routes per site in both replays.
			mapper := db.Predictor().NewMapper(tr.Table)
			if err := CheckBlockEquivalence(tr, fs, mapper); err != nil {
				t.Error(err)
			}
			// The sitearena comparison covers per-site routing only if
			// the replay really spreads over more than one site pool. The
			// lockstep Diff, which the models audit runs, must route per
			// site too.
			replayed := heapsim.NewSiteArena()
			if _, err := referenceReplay(tr, replayed, mapper, nil); err != nil {
				t.Fatal(err)
			}
			var diffed *heapsim.SiteArena
			sited := []Factory{{Name: "sitearena", New: func() heapsim.Allocator {
				diffed = heapsim.NewSiteArena()
				return diffed
			}}}
			if err := Diff(trace.NewSliceSource(tr), sited, Options{Predict: mapper}); err != nil {
				t.Fatal(err)
			}
			const onePool = 2 * 4 << 10 // NewSiteArena's pool: 2 x 4KB
			for _, run := range []struct {
				name string
				sa   *heapsim.SiteArena
			}{{"referenceReplay", replayed}, {"Diff", diffed}} {
				if run.sa.ArenaArea() <= onePool {
					t.Errorf("%s: sitearena used one site pool (%d bytes): per-site routing went unexercised", run.name, run.sa.ArenaArea())
				}
			}
		})
	}
}

// TestBlockEquivalenceCatchesDivergence feeds the checker a trace whose
// block and scalar replays must agree, then proves the checker is not
// vacuous by checking a malformed trace: both paths must fail with the
// same error at the same event index.
func TestBlockEquivalenceCatchesDivergence(t *testing.T) {
	fs, err := Factories("firstfit")
	if err != nil {
		t.Fatal(err)
	}
	// A double alloc of the same fresh id is rejected by every allocator;
	// both replay paths must surface the identical "core: event N" error,
	// which the checker counts as agreement, not divergence.
	tr := GenTrace(11, GenConfig{Events: 50})
	chain := tr.Events[0].Chain
	tr.Events = append(tr.Events,
		trace.Event{Kind: trace.KindAlloc, Obj: 999999, Size: 8, Chain: chain},
		trace.Event{Kind: trace.KindAlloc, Obj: 999999, Size: 8, Chain: chain})
	if err := CheckBlockEquivalence(tr, fs, nil); err != nil {
		t.Errorf("matching error paths reported as divergence: %v", err)
	}
	// And a healthy generated trace passes through CheckTrace, which now
	// includes the equivalence layer.
	good := GenTrace(11, GenConfig{Events: 400})
	if err := CheckTrace(good, fs, Options{Stride: 100}); err != nil {
		if strings.Contains(err.Error(), "blockequiv") {
			t.Fatalf("block equivalence failed on a legal trace: %v", err)
		}
		t.Fatal(err)
	}
}

// predSpy is a FirstFit that records whether any allocation reached it
// with the predicted-short hint set.
type predSpy struct {
	*heapsim.FirstFit
	sawShort bool
}

func (s *predSpy) Alloc(id trace.ObjectID, size int64, predictedShort bool) error {
	s.sawShort = s.sawShort || predictedShort
	return s.FirstFit.Alloc(id, size, predictedShort)
}

// TestCheckTracePredictsInEveryReplay: every allocator CheckTrace builds
// (the lockstep Diff's and both block/scalar equivalence replays') must
// receive Options.Predict's verdicts, so no layer of the suite replays
// blind to the predicted-short path.
func TestCheckTracePredictsInEveryReplay(t *testing.T) {
	var spies []*predSpy
	fs := []Factory{{Name: "spy", New: func() heapsim.Allocator {
		s := &predSpy{FirstFit: heapsim.NewFirstFit()}
		spies = append(spies, s)
		return s
	}}}
	if err := CheckTrace(GenTrace(3, GenConfig{}), fs, Options{Stride: 50, Predict: GenPredict(512)}); err != nil {
		t.Fatal(err)
	}
	if len(spies) < 3 {
		t.Fatalf("CheckTrace built %d allocators, want the Diff's and two equivalence replays'", len(spies))
	}
	for i, s := range spies {
		if !s.sawShort {
			t.Errorf("replay %d of %d never saw a predicted-short allocation", i+1, len(spies))
		}
	}
}
