package core_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/heapsim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// TestExperimentWiringPassesConformance replays one model's Test trace —
// with the same predictor mapping and CUSTOMALLOC hot sizes the paper
// experiments use — through the internal/check auditor for every
// allocator, in one lockstep differential replay. This is the glue test
// between the experiment pipeline and the conformance harness: if
// Build's artifacts ever stop satisfying the heap invariants, the tables
// built on them are meaningless.
func TestExperimentWiringPassesConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance replay of a model trace is slow in -short mode")
	}
	cfg := core.DefaultConfig(0.002)
	a, err := cfg.Build(synth.ByName("ghost"))
	if err != nil {
		t.Fatal(err)
	}
	mapper := a.TrainPredictor.NewMapper(a.TestTrace.Table)
	hot := a.TrainDB.TopSizes(16)
	fs, err := check.Factories()
	if err != nil {
		t.Fatal(err)
	}
	for i := range fs {
		if fs[i].Name == "custom" && len(hot) > 0 {
			fs[i].New = func() heapsim.Allocator { return heapsim.NewCustom(hot) }
		}
	}
	// Diff audits every participant against the shared ledger on the
	// stride, so it is the per-allocator audit too.
	opt := check.Options{Stride: 64, Predict: mapper}
	if err := check.Diff(trace.NewSliceSource(a.TestTrace), fs, opt); err != nil {
		t.Errorf("differential replay: %v", err)
	}
}
