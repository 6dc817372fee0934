package profile

import (
	"fmt"

	"repro/internal/callchain"
	"repro/internal/trace"
)

// Multi-input training. The paper describes profile-based optimization as
// running "with training sets of test data" (plural, §1): a site should
// only be trusted as short-lived if it was short-lived in EVERY training
// run. TrainMulti builds one database per trace and intersects the
// admitted sites by (chain-names, rounded size), exactly the mapping used
// for true prediction.

// TrainMulti trains on several traces (possibly from different executions
// with different chain tables) and returns a predictor admitting only the
// sites that were admitted in every run in which they appeared, and that
// appeared in at least one run. Sites that appear in only a subset of runs
// are judged on those runs alone — an input that never exercises a site
// says nothing about it.
//
// With RequireAllRuns set, a site must additionally appear in every
// training run: the most conservative variant, trading coverage for
// robustness against input-dependent sites.
func TrainMulti(traces []*trace.Trace, cfg Config, requireAllRuns bool) (*Predictor, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("profile: TrainMulti needs at least one trace")
	}
	cfg = cfg.withDefaults()

	// Canonical key space: a fresh table shared by the merged predictor.
	merged := &Predictor{
		Config: cfg,
		table:  callchain.NewTable(),
		keys:   make(map[SiteKey]struct{}),
	}

	type agg struct {
		runs     int
		admitted int
	}
	sites := make(map[SiteKey]*agg)

	for ti, tr := range traces {
		objs, err := trace.Annotate(tr)
		if err != nil {
			return nil, fmt.Errorf("profile: training trace %d: %w", ti, err)
		}
		db := TrainObjects(tr.Table, objs, cfg)
		// Re-key this run's sites into the merged table by names.
		for key, st := range db.Sites {
			mkey := SiteKey{
				Chain: merged.table.InternFrom(tr.Table, key.Chain),
				Size:  key.Size,
			}
			a := sites[mkey]
			if a == nil {
				a = &agg{}
				sites[mkey] = a
			}
			a.runs++
			if st.admitted(cfg.AdmitFraction) {
				a.admitted++
			}
		}
	}
	for key, a := range sites {
		if a.admitted != a.runs {
			continue // long-lived in at least one run
		}
		if requireAllRuns && a.runs != len(traces) {
			continue
		}
		merged.keys[key] = struct{}{}
	}
	return merged, nil
}
