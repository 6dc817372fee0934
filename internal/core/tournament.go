package core

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/heapsim"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/table"
	"repro/internal/trace"
)

// This file is the tournament runner: every registered prediction policy
// (the profile zoo) crossed with every simulated allocator, replayed over
// each program's Test input, scored, and ranked. It reuses the engine's
// per-program Artifacts cache — one build and one warm per program no
// matter how many policy × allocator cells run — and Engine.Run's
// build→cells scheduler with deterministic assembly, so the rendered
// report is byte-identical at any worker count.

// TournamentAllocators lists every simulator a tournament drives, in
// report order: all of heapsim's. custom takes its hot sizes from the
// training profile, as in the paper's custom configuration.
var TournamentAllocators = heapsim.Names

// OraclePolicy is one tournament predictor: a name and a trainer over a
// program's built artifacts. The returned Oracle keys chains in the
// Train trace's table; cells bind it to the Test table per replay.
type OraclePolicy struct {
	Name  string
	Train func(a *Artifacts, cfg profile.Config) (profile.Oracle, error)
}

// OraclePolicies returns the tournament's policy registry: every zoo
// trainer, each derived from the model's Train-input site database (the
// paper's honest configuration — never the measured input itself). Under
// the build's configuration that database is TrainDB, so no policy
// trains it again.
func OraclePolicies() []OraclePolicy {
	zs := profile.ZooTrainers()
	out := make([]OraclePolicy, len(zs))
	for i, z := range zs {
		z := z
		out[i] = OraclePolicy{
			Name: z.Name,
			Train: func(a *Artifacts, cfg profile.Config) (profile.Oracle, error) {
				return z.Train(a.trainDB(cfg), a.TrainTrace)
			},
		}
	}
	return out
}

// PolicyNames lists the registered tournament policies in report order.
func PolicyNames() []string {
	ps := OraclePolicies()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// TournamentSpec selects and gates one tournament run.
type TournamentSpec struct {
	// Programs subsets the configured models by name (canonical order is
	// always used for output). Nil or empty runs every model.
	Programs []string
	// Workers bounds how many cells run at once; values below 1 clamp to
	// GOMAXPROCS. The rendered report is identical at any value.
	Workers int
	// Gate, when non-nil, runs before any cell: it is the conformance
	// hook (internal/check's differential suite over every policy and
	// allocator) that every participant must pass before the tournament
	// scores it. A gate error aborts the run. The hook is injected here
	// because check imports core for the block/scalar equivalence replay,
	// so core cannot import check; cmd/lptables wires check.RunOracles in.
	Gate func() error
	// Collector, when non-nil, accrues wall-clock timing families
	// ("tournament_cell") as cells complete.
	Collector *obs.Collector
	// Progress, when non-nil, receives one line per scheduling milestone.
	// Calls may come from worker goroutines.
	Progress func(msg string)
}

// TournamentCell is one scored (program, policy, allocator) replay.
type TournamentCell struct {
	Program   string
	Policy    string
	Allocator string
	// FragPeakPct is the worst 1 - live/heap point on the replay
	// timeline, in percent.
	FragPeakPct float64
	// AccuracyPct is the byte-weighted prediction accuracy:
	// (TP+TN bytes) / all allocated bytes, in percent.
	AccuracyPct float64
	// FPBytes counts bytes predicted short that lived long.
	FPBytes int64
	// FPCost is the misprediction cost in byte-lifetime units: for each
	// false positive, lifetime beyond the threshold times size.
	FPCost  int64
	MaxHeap int64
}

// TournamentRank aggregates one (policy, allocator) pair across all
// programs: the tournament's ranked unit.
type TournamentRank struct {
	Rank        int
	Policy      string
	Allocator   string
	MeanFragPct float64
	MeanAccPct  float64
	FPCost      int64 // summed across programs
}

// TournamentResult is one run's deterministic output.
type TournamentResult struct {
	// Output is the rendered report — byte-identical for a given
	// (Config, Programs) at any worker count.
	Output []byte
	Cells  []TournamentCell
	Ranks  []TournamentRank
	Wall   time.Duration
}

// runTournamentCell replays one cell: bind the policy's oracle to the
// Test table (a fresh mapper per cell — mappers memoize and are not
// goroutine-safe; the shared tables were pre-warmed by warmArtifacts so
// binding only performs read-only lookups), drive a fresh allocator, and
// score the snapshot. custom's hot sizes come from the program's training
// profile; sitearena takes its per-site routing from the bound oracle.
func runTournamentCell(a *Artifacts, policy string, oracle profile.Oracle, allocName string) (TournamentCell, error) {
	cell := TournamentCell{Program: a.Model.Name, Policy: policy, Allocator: allocName}
	var hot []int64
	if allocName == "custom" {
		hot = a.TrainDB.TopSizes(16)
	}
	alloc, err := heapsim.New(allocName, hot)
	if err != nil {
		return cell, err
	}
	bound := profile.BindOracle(oracle, a.TestTrace.Table)
	col := obs.NewCollector(obs.Options{Label: a.Model.Name + "/" + policy + "/" + allocName})
	res, err := RunSimOracle(trace.NewSliceSource(a.TestTrace), alloc, bound, col)
	if err != nil {
		return cell, err
	}
	m := res.Obs.Flatten()
	tp, fp := m["pred.tp_bytes"], m["pred.fp_bytes"]
	fn, tn := m["pred.fn_bytes"], m["pred.tn_bytes"]
	if total := tp + fp + fn + tn; total > 0 {
		cell.AccuracyPct = 100 * (tp + tn) / total
	}
	cell.FPBytes = int64(fp)
	cell.FPCost = int64(m["pred.fp_cost_bytelife"])
	cell.FragPeakPct = res.Obs.FragPeakPct()
	cell.MaxHeap = res.MaxHeap
	return cell, nil
}

// RunTournament gates, schedules, scores, and ranks the full policy ×
// allocator matrix over the spec's programs. Per program the build and
// all policy training run single-threaded (chain tables are not
// goroutine-safe); the cells then fan out on the worker pool, and the
// report is assembled in fixed order afterwards.
func (e *Engine) RunTournament(spec TournamentSpec) (*TournamentResult, error) {
	start := time.Now()
	progress := spec.Progress
	if progress == nil {
		progress = func(string) {}
	}
	if spec.Gate != nil {
		progress("running conformance gate...")
		if err := spec.Gate(); err != nil {
			return nil, fmt.Errorf("core: tournament gate: %w", err)
		}
		progress("conformance gate passed")
	}
	models, err := e.selectModels(spec.Programs)
	if err != nil {
		return nil, err
	}
	policies := OraclePolicies()
	allocs := TournamentAllocators

	nCell := len(policies) * len(allocs)
	cells := make([]TournamentCell, len(models)*nCell)
	build := func(pi int) (func(ci int) error, error) {
		m := models[pi]
		progress(fmt.Sprintf("building %s and training %d policies...", m.Name, len(policies)))
		a, err := e.Artifacts(m.Name)
		if err != nil {
			return nil, fmt.Errorf("core: building %s: %w", m.Name, err)
		}
		oracles := make([]profile.Oracle, len(policies))
		for qi, p := range policies {
			if oracles[qi], err = p.Train(a, e.cfg.Profile); err != nil {
				return nil, fmt.Errorf("core: building %s: training %s: %w", m.Name, p.Name, err)
			}
		}
		return func(ci int) error {
			qi, ai := ci/len(allocs), ci%len(allocs)
			t0 := time.Now()
			c, err := runTournamentCell(a, policies[qi].Name, oracles[qi], allocs[ai])
			spec.Collector.ObserveTiming("tournament_cell", time.Since(t0))
			if err != nil {
				return fmt.Errorf("core: %s cell %s/%s: %w", m.Name, policies[qi].Name, allocs[ai], err)
			}
			cells[pi*nCell+ci] = c
			return nil
		}, nil
	}
	if err := Schedule(len(models), nCell, spec.Workers, build); err != nil {
		return nil, err
	}

	ranks := rankTournament(cells, policies, allocs, len(models))

	// Render: per-program accuracy (allocator-independent — predictions
	// depend only on the oracle and the trace, so the firstfit column
	// speaks for the pair), then the ranked pair table.
	var buf bytes.Buffer
	acc := table.New("Tournament: prediction accuracy by policy (Test input, trained on Train)",
		"program", "policy", "accuracy %", "FP bytes", "FP cost (byte-life)")
	for pi := range models {
		for qi, p := range policies {
			c := cells[pi*nCell+qi*len(allocs)] // allocator 0 = firstfit
			acc.RowStrings(c.Program, p.Name,
				fmt.Sprintf("%.2f", c.AccuracyPct),
				fmt.Sprintf("%d", c.FPBytes),
				fmt.Sprintf("%d", c.FPCost))
		}
	}
	if _, err := acc.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("core: rendering tournament accuracy: %w", err)
	}
	rk := table.New("Tournament: policy x allocator ranking (mean over programs, best first)",
		"rank", "policy", "allocator", "frag peak %", "accuracy %", "FP cost (byte-life)")
	for _, r := range ranks {
		rk.RowStrings(fmt.Sprintf("%d", r.Rank), r.Policy, r.Allocator,
			fmt.Sprintf("%.2f", r.MeanFragPct),
			fmt.Sprintf("%.2f", r.MeanAccPct),
			fmt.Sprintf("%d", r.FPCost))
	}
	if _, err := rk.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("core: rendering tournament ranking: %w", err)
	}

	return &TournamentResult{
		Output: buf.Bytes(),
		Cells:  cells,
		Ranks:  ranks,
		Wall:   time.Since(start),
	}, nil
}

// rankTournament aggregates cells into per-(policy, allocator) means and
// orders them best first: lowest mean fragmentation, then highest
// accuracy, then lowest misprediction cost, then registry order — every
// key deterministic, so the ranking is too.
func rankTournament(cells []TournamentCell, policies []OraclePolicy, allocs []string, nModels int) []TournamentRank {
	nCell := len(policies) * len(allocs)
	ranks := make([]TournamentRank, 0, nCell)
	for qi, p := range policies {
		for ai, al := range allocs {
			r := TournamentRank{Policy: p.Name, Allocator: al}
			for pi := 0; pi < nModels; pi++ {
				c := cells[pi*nCell+qi*len(allocs)+ai]
				r.MeanFragPct += c.FragPeakPct
				r.MeanAccPct += c.AccuracyPct
				r.FPCost += c.FPCost
			}
			if nModels > 0 {
				r.MeanFragPct /= float64(nModels)
				r.MeanAccPct /= float64(nModels)
			}
			ranks = append(ranks, r)
		}
	}
	sort.SliceStable(ranks, func(a, b int) bool {
		ra, rb := ranks[a], ranks[b]
		if ra.MeanFragPct != rb.MeanFragPct {
			return ra.MeanFragPct < rb.MeanFragPct
		}
		if ra.MeanAccPct != rb.MeanAccPct {
			return ra.MeanAccPct > rb.MeanAccPct
		}
		return ra.FPCost < rb.FPCost
	})
	for i := range ranks {
		ranks[i].Rank = i + 1
	}
	return ranks
}
