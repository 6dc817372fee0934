package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/callchain"
	"repro/internal/heapsim"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/synth"
)

// AllocatorNames lists the simulators RunSim drives by name, in report
// order. SiteArena replays through the same loop (RunSimOracle routes it
// per site), but stays out of the standard matrix so the committed
// baselines keep their 75 cells; the tournament runs it.
var AllocatorNames = []string{"firstfit", "bestfit", "bsd", "arena", "segfit"}

// PredictorModes are the prediction configurations a matrix job can ask
// for: none (no hints), self (trained on the measured input itself), and
// true (trained on the Train input — the paper's honest configuration).
var PredictorModes = []string{"none", "self", "true"}

// NewAllocator builds a fresh simulator of the standard matrix by name.
func NewAllocator(name string) (heapsim.Allocator, error) {
	if err := CheckAllocator(name); err != nil {
		return nil, err
	}
	return heapsim.New(name, nil)
}

// CheckAllocator reports an error unless name is one of AllocatorNames,
// without building a simulator.
func CheckAllocator(name string) error { return checkName("allocator", name, AllocatorNames) }

// checkName reports an error naming name unless it is one of known.
func checkName(kind, name string, known []string) error {
	if !slices.Contains(known, name) {
		return fmt.Errorf("core: unknown %s %q (want %s)", kind, name, strings.Join(known, ", "))
	}
	return nil
}

// MustNewAllocator is NewAllocator for known-good names; it panics on a
// bad one (test helper).
func MustNewAllocator(name string) heapsim.Allocator {
	a, err := NewAllocator(name)
	if err != nil {
		panic(err)
	}
	return a
}

// MatrixJob names one cell of the model × allocator × predictor matrix:
// replay the model's Test input through the allocator, with the requested
// prediction mode.
type MatrixJob struct {
	Model     string `json:"model"`
	Allocator string `json:"allocator"`
	Predictor string `json:"predictor"` // "none", "self", or "true"
}

// String renders the job as model/allocator/predictor.
func (j MatrixJob) String() string {
	return j.Model + "/" + j.Allocator + "/" + j.Predictor
}

// Validate checks every field against the known sets.
func (j MatrixJob) Validate() error {
	if err := checkName("model", j.Model, ProgramOrder); err != nil {
		return err
	}
	if err := CheckAllocator(j.Allocator); err != nil {
		return err
	}
	return checkName("predictor mode", j.Predictor, PredictorModes)
}

// ParseMatrix expands a compact matrix spec into jobs. The spec is up to
// three /-separated segments — models, allocators, predictor modes —
// each a comma list or "all"; omitted segments default to all allocators
// and true prediction. A segment may not name an entry twice, so a spec
// yields at most 75 jobs. Examples:
//
//	all                     every model × every allocator × true
//	gawk,cfrac/arena        those two models on the arena allocator, true
//	perl/all/none,true      perl on every allocator, with and without hints
func ParseMatrix(spec string) ([]MatrixJob, error) {
	parts := strings.Split(spec, "/")
	if len(parts) > 3 {
		return nil, fmt.Errorf("core: matrix spec %q has more than models/allocators/predictors", spec)
	}
	pick := func(i int, kind string, all []string) ([]string, error) {
		if i >= len(parts) || parts[i] == "" || parts[i] == "all" {
			return all, nil
		}
		names := strings.Split(parts[i], ",")
		for k, n := range names {
			// Every name before n is known and distinct, so the repeat
			// scan reads at most len(all) of them.
			if err := checkName(kind, n, all); err != nil {
				return nil, err
			}
			if slices.Contains(names[:k], n) {
				return nil, fmt.Errorf("core: matrix spec %q repeats %s %q", spec, kind, n)
			}
		}
		return names, nil
	}
	models, err := pick(0, "model", ProgramOrder)
	if err != nil {
		return nil, err
	}
	allocs, err := pick(1, "allocator", AllocatorNames)
	if err != nil {
		return nil, err
	}
	preds := []string{"true"}
	if len(parts) >= 3 {
		if preds, err = pick(2, "predictor mode", PredictorModes); err != nil {
			return nil, err
		}
	}
	jobs := make([]MatrixJob, 0, len(models)*len(allocs)*len(preds))
	for _, m := range models {
		for _, a := range allocs {
			for _, p := range preds {
				jobs = append(jobs, MatrixJob{Model: m, Allocator: a, Predictor: p})
			}
		}
	}
	return jobs, nil
}

// MatrixRunner executes matrix jobs against one Config. It never keeps a
// materialized trace: what is cached per model is the pair of
// streaming-trained predictors (true and self) plus the exact Test-input
// event count, all derived from generator configs — a few kilobytes
// instead of the full event list. Each job then regenerates its Test
// events through a fresh synth.Source, so replay memory is bounded by
// the live-object set. All methods are safe for concurrent use —
// lpserve's workers and RunAll's Schedule cells run jobs in parallel,
// each with its own collector.
type MatrixRunner struct {
	cfg Config

	mu     sync.Mutex
	models map[string]*modelEntry
}

// modelEntry is the per-model shared state: predictors and the test
// event count, built once under the sync.Once. The predictors' chain
// tables are pre-warmed against a scratch Test table during build, so
// the concurrent per-job mappers only ever hit read-only lookups on the
// shared tables (callchain.Table is not itself goroutine-safe).
type modelEntry struct {
	once       sync.Once
	truePred   *profile.Predictor
	selfPred   *profile.Predictor
	testEvents int
	err        error
}

// NewMatrixRunner returns a runner over the given experiment config.
func NewMatrixRunner(cfg Config) *MatrixRunner {
	return &MatrixRunner{cfg: cfg, models: make(map[string]*modelEntry)}
}

// model returns the (cached) streaming-trained per-model state.
func (r *MatrixRunner) model(name string) (*modelEntry, error) {
	m := synth.ByName(name)
	if m == nil {
		return nil, fmt.Errorf("core: unknown model %q", name)
	}
	r.mu.Lock()
	e, ok := r.models[name]
	if !ok {
		e = &modelEntry{}
		r.models[name] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.build(r.cfg, m) })
	return e, e.err
}

// TrainPredictor trains the model's predictor on one input from a
// streaming source, never materializing the trace: the matrix's true
// (Train) and self (Test) predictors, and the cluster's per-model one.
func (c Config) TrainPredictor(m *synth.Model, in synth.Input) (*profile.Predictor, error) {
	src, err := m.Source(c.GenConfig(in))
	if err != nil {
		return nil, err
	}
	db, err := profile.TrainSource(src, c.Profile)
	if err != nil {
		return nil, err
	}
	return db.Predictor(), nil
}

func (e *modelEntry) build(cfg Config, m *synth.Model) {
	if e.truePred, e.err = cfg.TrainPredictor(m, synth.Train); e.err != nil {
		return
	}
	if e.selfPred, e.err = cfg.TrainPredictor(m, synth.Test); e.err != nil {
		return
	}
	if e.testEvents, e.err = m.CountEvents(cfg.GenConfig(synth.Test)); e.err != nil {
		return
	}
	// Pre-warm the shared predictor tables: map every chain a Test
	// replay can present (the per-job tables are deterministic copies of
	// this scratch table) so the site chains and their function names
	// are interned now, while we are still single-threaded. Concurrent
	// jobs then only perform read-only lookups on the shared tables.
	src, err := m.Source(cfg.GenConfig(synth.Test))
	if err != nil {
		e.err = err
		return
	}
	tb := src.Table()
	for _, p := range []*profile.Predictor{e.truePred, e.selfPred} {
		mapper := p.NewMapper(tb)
		for id := 1; id < tb.NumChains(); id++ {
			mapper.PredictShort(callchain.ChainID(id), 0)
		}
	}
}

// predictor returns the streaming-trained predictor a job in the given
// mode replays against: the Train-input one for "true", the Test-input
// one for "self", and nil for "none".
func (e *modelEntry) predictor(mode string) (*profile.Predictor, error) {
	switch mode {
	case "none":
		return nil, nil
	case "self":
		return e.selfPred, nil
	case "true":
		return e.truePred, nil
	}
	return nil, fmt.Errorf("core: unknown predictor mode %q (want %s)", mode, strings.Join(PredictorModes, ", "))
}

// Run executes one matrix job, observing it through the optional
// collector (which may be scraped concurrently mid-replay). The job's
// Test events are regenerated through a fresh streaming source, so a
// run's memory footprint is the live-object set, not the trace length;
// the SimResult (including the obs snapshot) is byte-identical to
// replaying the materialized Test trace.
func (r *MatrixRunner) Run(j MatrixJob, col *obs.Collector) (SimResult, error) {
	if err := j.Validate(); err != nil {
		return SimResult{}, err
	}
	e, err := r.model(j.Model)
	if err != nil {
		return SimResult{}, err
	}
	pred, err := e.predictor(j.Predictor)
	if err != nil {
		return SimResult{}, err
	}
	alloc, err := NewAllocator(j.Allocator)
	if err != nil {
		return SimResult{}, err
	}
	src, err := synth.ByName(j.Model).Source(r.cfg.GenConfig(synth.Test))
	if err != nil {
		return SimResult{}, err
	}
	src.SetCount(e.testEvents)
	return RunSimSource(src, alloc, pred, col)
}

// MatrixResult pairs a job with its outcome.
type MatrixResult struct {
	Job MatrixJob
	Res SimResult
	Err error
}

// RunAll executes the jobs as the cells of one Schedule program on
// workers slots (values below 1 clamp to GOMAXPROCS) and returns results
// in job order. newCollector, when non-nil, supplies each job's observer.
func (r *MatrixRunner) RunAll(jobs []MatrixJob, workers int, newCollector func(MatrixJob) *obs.Collector) []MatrixResult {
	results := make([]MatrixResult, len(jobs))
	// Each job's error stays in its own result, so no cell fails and
	// Schedule has no error to report.
	_ = Schedule(1, len(jobs), workers, func(int) (func(int) error, error) {
		return func(i int) error {
			j := jobs[i]
			var col *obs.Collector
			if newCollector != nil {
				col = newCollector(j)
			}
			res, err := r.Run(j, col)
			results[i] = MatrixResult{Job: j, Res: res, Err: err}
			return nil
		}, nil
	})
	return results
}

// SortJobs orders jobs deterministically: paper program order, then
// allocator report order, then predictor mode.
func SortJobs(jobs []MatrixJob) {
	rank := func(list []string, v string) int {
		for i, s := range list {
			if s == v {
				return i
			}
		}
		return len(list)
	}
	sort.SliceStable(jobs, func(a, b int) bool {
		ja, jb := jobs[a], jobs[b]
		if ra, rb := rank(ProgramOrder, ja.Model), rank(ProgramOrder, jb.Model); ra != rb {
			return ra < rb
		}
		if ra, rb := rank(AllocatorNames, ja.Allocator), rank(AllocatorNames, jb.Allocator); ra != rb {
			return ra < rb
		}
		return rank(PredictorModes, ja.Predictor) < rank(PredictorModes, jb.Predictor)
	})
}
