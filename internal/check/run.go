package check

import (
	"fmt"

	"repro/internal/trace"
)

// CheckTrace runs the full conformance suite over one materialized
// trace: the differential replay of every factory's allocator with
// invariant audits on the stride, the metamorphic properties (relabel
// invariance; arena-count monotonicity of fallbacks when a predictor is
// in play), and the block/scalar replay equivalence — so a violation in
// any layer, including the batched engine, shrinks to a minimal repro
// through the same Run harness. A nil error means every layer agreed.
func CheckTrace(tr *trace.Trace, fs []Factory, opt Options) error {
	if err := Diff(trace.NewSliceSource(tr), fs, opt); err != nil {
		return err
	}
	if err := CheckRelabelInvariance(tr); err != nil {
		return fmt.Errorf("metamorphic: %w", err)
	}
	if err := CheckBlockEquivalence(tr, fs, opt.Predict); err != nil {
		return fmt.Errorf("blockequiv: %w", err)
	}
	if opt.Predict != nil {
		if err := CheckArenaMonotone(tr, opt.Predict, []int{4, 8, 16, 32}); err != nil {
			return fmt.Errorf("metamorphic: %w", err)
		}
	}
	return nil
}

// Run is the seeded property harness: it generates cases random legal
// traces from seedBase, runs CheckTrace on each, and on the first
// violation shrinks the trace to a minimal repro and returns it as a
// *Violation (which implements error). progress, when non-nil, is
// called after every case for live reporting.
func Run(seedBase uint64, cases int, gcfg GenConfig, fs []Factory, opt Options, progress func(done int)) error {
	return run(seedBase, cases, gcfg, func(tr *trace.Trace) error { return CheckTrace(tr, fs, opt) }, progress)
}

// run is the generate → check → shrink loop behind Run and RunOracles:
// fails is the check every generated case must pass, and the predicate
// the shrinker minimizes a failing case against.
func run(seedBase uint64, cases int, gcfg GenConfig, fails func(*trace.Trace) error, progress func(done int)) error {
	for i := 0; i < cases; i++ {
		seed := seedBase + uint64(i)
		tr := GenTrace(seed, gcfg)
		if err := fails(tr); err != nil {
			shrunk := Shrink(tr, fails)
			return &Violation{
				Err:    fails(shrunk),
				Seed:   seed,
				Case:   i,
				Trace:  shrunk,
				Events: len(tr.Events),
			}
		}
		if progress != nil {
			progress(i + 1)
		}
	}
	return nil
}
