package check

import (
	"bytes"
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/heapsim"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
)

// CheckBlockEquivalence proves the batched replay path is observationally
// identical to the scalar one: for every factory it replays tr twice —
// once through core.RunSimOracle (the block-driven engine) and once
// through referenceReplay (the event-at-a-time oracle) — and requires
// exact agreement on the SimResult and on the full observed snapshot,
// serialized to JSON and compared byte for byte. That covers every
// counter, histogram, timeline sample, phase mark, and pred.* accuracy
// family, so any drift the batching could introduce (a mis-offset event
// index, a dropped observation at a block boundary, a reordered
// prediction) fails loudly instead of skewing results.
//
// oracle, which must speak tr's chain table, supplies the
// predicted-short hints and the pred.* scoring threshold; nil predicts
// nothing. A *profile.Mapper oracle, which profile.BindOracle makes of
// every site policy, also exercises the per-site routing of the
// sitearena factory.
func CheckBlockEquivalence(tr *trace.Trace, fs []Factory, oracle profile.Oracle) error {
	for _, f := range fs {
		run := func(scalar bool) (core.SimResult, []byte, error) {
			col := obs.NewCollector(obs.Options{Label: "blockequiv/" + f.Name})
			var res core.SimResult
			var err error
			if scalar {
				res, err = referenceReplay(tr, f.New(), oracle, col)
			} else {
				res, err = core.RunSimOracle(trace.NewSliceSource(tr), f.New(), oracle, col)
			}
			if err != nil {
				return res, nil, err
			}
			var buf bytes.Buffer
			if err := obs.WriteJSON(&buf, col.Snapshot()); err != nil {
				return res, nil, err
			}
			return res, buf.Bytes(), nil
		}
		sres, ssnap, serr := run(true)
		bres, bsnap, berr := run(false)
		// The two paths must agree on failure too: same error or none.
		if (serr == nil) != (berr == nil) || (serr != nil && serr.Error() != berr.Error()) {
			return fmt.Errorf("%s: block/scalar error divergence: scalar=%v block=%v", f.Name, serr, berr)
		}
		if serr != nil {
			continue
		}
		if !reflect.DeepEqual(sres, bres) {
			return fmt.Errorf("%s: SimResult diverged between scalar and block replay:\nscalar: %+v\nblock:  %+v", f.Name, sres, bres)
		}
		if !bytes.Equal(ssnap, bsnap) {
			return fmt.Errorf("%s: observed snapshot diverged between scalar and block replay (%d vs %d bytes)", f.Name, len(ssnap), len(bsnap))
		}
	}
	return nil
}

// referenceReplay is core.RunSimOracle written as the plain
// one-event-at-a-time loop over the materialized trace: the oracle the
// block path is differentially tested against. Each event goes through
// applyEvent, which routes a SiteArena per site exactly as the block loop
// does, and the verdict it returns is scored through the same
// core.Tracker.
func referenceReplay(tr *trace.Trace, alloc heapsim.Allocator, oracle profile.Oracle, col *obs.Collector) (core.SimResult, error) {
	ot := core.NewTracker(col, alloc, len(tr.Events), oracle)
	res := core.SimResult{}
	for i, ev := range tr.Events {
		short, err := applyEvent(alloc, ev, oracle)
		if err != nil {
			return res, fmt.Errorf("core: event %d: %w", i, err)
		}
		if ev.Kind == trace.KindAlloc {
			res.TotalAllocs++
			res.TotalBytes += ev.Size
		}
		ot.Step(ev, short)
	}
	core.FinishSim(&res, alloc)
	res.Obs = ot.Finish(tr.Program, tr.Table)
	return res, nil
}
