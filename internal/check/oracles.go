package check

import (
	"fmt"
	"sort"

	"repro/internal/profile"
	"repro/internal/trace"
)

// This file is the conformance gate for the predictor zoo: before a
// policy may enter a tournament, every registered oracle is trained on
// the trace under test and the full differential suite re-runs with that
// oracle supplying the predictedShort hints. check imports core (for the
// block/scalar equivalence replay), so core cannot import check; the
// tournament runner instead takes this gate as an injected hook (see
// core.TournamentSpec.Gate), which cmd/lptables wires up.

// zooCheckConfig is the site-keying configuration the gate trains under:
// a low threshold so generated traces (a few KB of allocation) actually
// split into short and long populations.
var zooCheckConfig = profile.Config{ShortThreshold: 1 << 10}

// ZooPredicts trains one site database on the trace itself and derives
// every registered zoo policy from it (self-prediction), returning each
// policy's oracle bound to the trace's own table, keyed by policy name.
// Binding makes every site policy a *profile.Mapper, the oracle the
// tournament replays with, so a SiteArena routes per site here as it
// does there. Training errors abort: an oracle that cannot train on a
// legal trace is itself a violation.
func ZooPredicts(tr *trace.Trace) (map[string]profile.Oracle, error) {
	db, err := profile.Train(tr, zooCheckConfig)
	if err != nil {
		return nil, fmt.Errorf("check: training site database: %w", err)
	}
	out := make(map[string]profile.Oracle)
	for _, zt := range profile.ZooTrainers() {
		o, err := zt.Train(db, tr)
		if err != nil {
			return nil, fmt.Errorf("check: training %s oracle: %w", zt.Name, err)
		}
		out[zt.Name] = profile.BindOracle(o, tr.Table)
	}
	return out, nil
}

// CheckTraceOracles runs CheckTrace once per zoo policy, with that
// policy's verdicts driving the predictedShort hint for every allocator
// in the lockstep replay and the block/scalar equivalence. Policies run
// in sorted name order so failures are deterministic.
func CheckTraceOracles(tr *trace.Trace, fs []Factory, opt Options) error {
	preds, err := ZooPredicts(tr)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(preds))
	for n := range preds {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		o := opt
		o.Predict = preds[name]
		if err := CheckTrace(tr, fs, o); err != nil {
			return fmt.Errorf("oracle %s: %w", name, err)
		}
	}
	return nil
}

// RunOracles is the zoo-gated property harness: like Run, but every
// generated trace is checked under every registered prediction policy,
// and the first violation ddmin-shrinks to a minimal repro that still
// fails CheckTraceOracles.
func RunOracles(seedBase uint64, cases int, gcfg GenConfig, fs []Factory, opt Options, progress func(done int)) error {
	return run(seedBase, cases, gcfg, func(tr *trace.Trace) error { return CheckTraceOracles(tr, fs, opt) }, progress)
}
