package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/callchain"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/table"
)

// Engine schedules the full paper reproduction (Tables 1-9 plus the
// locality extension and the ablation suite) as a DAG of cells: one
// Artifacts build per program fans out first, then every requested
// table/ablation cell of that program runs as soon as its build lands.
// Cells execute on a bounded worker pool, and the report is assembled in
// fixed table order afterwards, so the rendered output is byte-identical
// to a serial run at any worker count. cmd/lptables, the golden-file
// tests, and the root benchmarks all run through here.
//
// Artifacts are cached per model and pre-warmed (see warmArtifacts) so
// concurrent cells only ever perform read-only lookups on the shared
// callchain tables; an Engine is safe for concurrent use, and repeated
// Runs reuse the cache.
type Engine struct {
	cfg  Config
	mu   sync.Mutex
	arts map[string]*engineArt
}

type engineArt struct {
	once sync.Once
	art  *Artifacts
	err  error
}

// NewEngine returns an engine over one experiment configuration.
func NewEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg, arts: make(map[string]*engineArt)}
}

// modelByName resolves a model within the engine's configured set.
func (e *Engine) modelByName(name string) *synth.Model {
	for _, m := range e.cfg.Models {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Artifacts returns the cached, table-warmed artifacts for one model,
// building them on first use. The returned Artifacts are safe for
// concurrent read-side use by experiment cells.
func (e *Engine) Artifacts(name string) (*Artifacts, error) {
	m := e.modelByName(name)
	if m == nil {
		return nil, fmt.Errorf("core: unknown model %q (want %s)", name, strings.Join(e.programNames(), ", "))
	}
	e.mu.Lock()
	en, ok := e.arts[name]
	if !ok {
		en = &engineArt{}
		e.arts[name] = en
	}
	e.mu.Unlock()
	en.once.Do(func() {
		en.art, en.err = e.cfg.Build(m)
		if en.err == nil {
			warmArtifacts(en.art)
		}
	})
	return en.art, en.err
}

// warmArtifacts pre-interns every chain and function name an experiment
// cell can derive, while still single-threaded. callchain.Table is not
// goroutine-safe, and training, evaluation, and replay mappers all intern
// lazily (sub-chains, recursion-eliminated chains, cross-table name
// mappings); warming makes those interning calls map hits, so the cells
// that later run concurrently over the shared Artifacts only perform
// read-only lookups. This mirrors the MatrixRunner pre-warm, extended to
// cover every lptables cell:
//
//   - recursion-eliminated site chains in both tables (the default
//     predictor config, used by training, evaluation, and every replay
//     mapper);
//   - Table 6's length-1..7 sub-chains in the train table;
//   - the Test→Train cross-table name mapping (true-prediction mappers
//     intern the eliminated Test chain's names into the predictor's
//     table).
//
// The one remaining table mutation is call-chain-encryption id assignment
// (extension A5); exactly one cell per program touches those ids, and no
// other cell reads them, so it stays on the cell.
func warmArtifacts(a *Artifacts) {
	trainTb, testTb := a.TrainTrace.Table, a.TestTrace.Table
	nTrain := trainTb.NumChains()
	for id := 1; id < nTrain; id++ {
		trainTb.EliminateRecursion(callchain.ChainID(id))
		for l := 1; l <= 7; l++ {
			trainTb.SubChain(callchain.ChainID(id), l)
		}
	}
	nTest := testTb.NumChains()
	for id := 1; id < nTest; id++ {
		trainTb.InternFrom(testTb, testTb.EliminateRecursion(callchain.ChainID(id)))
	}
}

// programNames lists the configured model names in canonical order.
func (e *Engine) programNames() []string {
	out := make([]string, len(e.cfg.Models))
	for i, m := range e.cfg.Models {
		out[i] = m.Name
	}
	return out
}

// ParseTables parses a comma-separated -tables spec ("2,7,8") into the
// flag set Spec.Tables wants, rejecting unknown keys.
func ParseTables(spec string) (map[string]bool, error) {
	want := make(map[string]bool)
	for _, k := range strings.Split(spec, ",") {
		k = strings.TrimSpace(k)
		valid := false
		for _, f := range TableFlags {
			if k == f {
				valid = true
				break
			}
		}
		if !valid {
			return nil, fmt.Errorf("core: unknown table %q (want %s)", k, strings.Join(TableFlags, ","))
		}
		want[k] = true
	}
	return want, nil
}

// Spec selects the cells of one engine run.
type Spec struct {
	// Tables holds the enabled -tables keys ("1".."9", "L", "A");
	// nil or empty runs everything.
	Tables map[string]bool
	// Programs subsets the configured models by name; order does not
	// matter (output always follows the configuration's canonical
	// order). Nil or empty runs every model.
	Programs []string
	// Workers bounds how many cells run at once; values below 1 clamp
	// to GOMAXPROCS. The rendered output is identical at any value.
	Workers int
	// Collector, when non-nil, accrues the wall-clock timing families
	// ("engine_build", "engine_cell") as cells complete, so a live
	// scrape shows schedule progress. Timings are also always returned
	// in the RunResult.
	Collector *obs.Collector
	// Progress, when non-nil, receives one human-readable line per
	// scheduling milestone (build start/finish). Calls may come from
	// worker goroutines; the callback must be safe for concurrent use.
	Progress func(msg string)
}

// CellTiming records the wall-clock schedule of one cell: when it
// started relative to the run's start (after acquiring a worker slot)
// and how long it ran. Start offsets make cell overlap reconstructible —
// WriteChromeTrace renders them as a Perfetto-loadable trace.
type CellTiming struct {
	Program string
	Cell    string // "build", "1".."9", "L", "A1".."A8"
	Start   time.Duration
	Dur     time.Duration
}

// RunResult is one engine run's deterministic output plus its schedule
// telemetry.
type RunResult struct {
	// Output is the rendered report — byte-identical for a given
	// (Config, Tables, Programs) at any worker count.
	Output []byte
	// Timings lists per-cell wall-clock durations in deterministic cell
	// order (program-major, build first). Durations are machine- and
	// schedule-dependent; everything else is not.
	Timings []CellTiming
	// Wall is the end-to-end run duration.
	Wall time.Duration
}

// CPUTime sums the per-cell durations — the serial-equivalent work the
// run performed. Comparing it against Wall shows the achieved overlap.
func (r *RunResult) CPUTime() time.Duration {
	var sum time.Duration
	for _, t := range r.Timings {
		sum += t.Dur
	}
	return sum
}

// selectModels resolves and canonically orders the requested programs.
func (e *Engine) selectModels(programs []string) ([]*synth.Model, error) {
	if len(programs) == 0 {
		return e.cfg.Models, nil
	}
	want := make(map[string]bool, len(programs))
	for _, p := range programs {
		p = strings.TrimSpace(p)
		if e.modelByName(p) == nil {
			return nil, fmt.Errorf("core: unknown program %q (want %s)", p, strings.Join(e.programNames(), ", "))
		}
		want[p] = true
	}
	out := make([]*synth.Model, 0, len(want))
	for _, m := range e.cfg.Models {
		if want[m.Name] {
			out = append(out, m)
		}
	}
	return out, nil
}

// Run executes the spec's cells on the worker pool and renders the
// report. Any build or cell error aborts the run; the first error in
// deterministic cell order is returned (the same error a serial run
// would hit first).
func (e *Engine) Run(spec Spec) (*RunResult, error) {
	start := time.Now()
	models, err := e.selectModels(spec.Programs)
	if err != nil {
		return nil, err
	}
	want := spec.Tables
	if len(want) == 0 {
		want = make(map[string]bool, len(TableFlags))
		for _, f := range TableFlags {
			want[f] = true
		}
	}
	for k := range want {
		if _, perr := ParseTables(k); perr != nil {
			return nil, perr
		}
	}

	cells := make([]cellDef, 0, len(cellDefs))
	for _, cd := range cellDefs {
		if want[cd.flag] {
			cells = append(cells, cd)
		}
	}

	nCell := len(cells)
	type slot struct {
		rows  map[string][]string
		begin time.Duration
		dur   time.Duration
	}
	slots := make([]slot, len(models)*nCell)
	buildBegin := make([]time.Duration, len(models))
	buildDur := make([]time.Duration, len(models))

	progress := spec.Progress
	if progress == nil {
		progress = func(string) {}
	}

	build := func(pi int) (func(ci int) error, error) {
		m := models[pi]
		progress(fmt.Sprintf("building %s...", m.Name))
		t0 := time.Now()
		buildBegin[pi] = t0.Sub(start)
		a, err := e.Artifacts(m.Name)
		buildDur[pi] = time.Since(t0)
		spec.Collector.ObserveTiming("engine_build", buildDur[pi])
		if err != nil {
			return nil, fmt.Errorf("core: building %s: %w", m.Name, err)
		}
		return func(ci int) error {
			s := &slots[pi*nCell+ci]
			s.rows = make(map[string][]string, 2)
			add := func(tableID string, rowCells ...string) {
				s.rows[tableID] = rowCells
			}
			t0 := time.Now()
			s.begin = t0.Sub(start)
			err := cells[ci].run(e.cfg, a, add)
			s.dur = time.Since(t0)
			spec.Collector.ObserveTiming("engine_cell", s.dur)
			if err != nil {
				return fmt.Errorf("core: %s cell %s: %w", m.Name, cells[ci].name, err)
			}
			return nil
		}, nil
	}
	if err := Schedule(len(models), nCell, spec.Workers, build); err != nil {
		return nil, err
	}

	// Assemble: tables in render order, rows in program order — the
	// exact bytes of a serial run regardless of completion order above.
	producer := make(map[string]int, len(tableDefs))
	for ci, cd := range cells {
		for _, td := range tableDefs {
			if td.cell == cd.name {
				producer[td.id] = ci
			}
		}
	}
	var buf bytes.Buffer
	for _, td := range tableDefs {
		if !want[td.flag] {
			continue
		}
		tb := table.New(td.title, td.headers...)
		ci := producer[td.id]
		for pi := range models {
			if row, ok := slots[pi*nCell+ci].rows[td.id]; ok {
				tb.RowStrings(row...)
			}
		}
		if _, err := tb.WriteTo(&buf); err != nil {
			return nil, fmt.Errorf("core: rendering %s: %w", td.id, err)
		}
	}

	timings := make([]CellTiming, 0, len(models)*(1+nCell))
	for pi, m := range models {
		timings = append(timings, CellTiming{Program: m.Name, Cell: "build", Start: buildBegin[pi], Dur: buildDur[pi]})
		for ci, cd := range cells {
			s := &slots[pi*nCell+ci]
			timings = append(timings, CellTiming{Program: m.Name, Cell: cd.name, Start: s.begin, Dur: s.dur})
		}
	}
	return &RunResult{Output: buf.Bytes(), Timings: timings, Wall: time.Since(start)}, nil
}

// Schedule is the one worker pool behind Engine.Run, RunTournament,
// MatrixRunner.RunAll and the cluster tournament: a build→cells DAG.
// Each of nProg programs' build holds one of workers slots (values below
// 1 clamp to GOMAXPROCS) and releases it; only then do the nCell cells of
// the runner it returns queue for slots, so one program's cells overlap
// the next program's build. A cell takes its slot before it is spawned,
// so a program's cells start in index order. Whatever a runner captures
// becomes garbage once its program's cells finish. Callers fill
// per-index result slots, so completion order never reaches their
// output. The returned error is the first in deterministic order — any
// build error by program, then cell errors by (program, cell) — the
// error a serial run would hit first; a program whose build fails runs
// no cells.
func Schedule(nProg, nCell, workers int, build func(pi int) (cell func(ci int) error, err error)) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	buildErr := make([]error, nProg)
	cellErr := make([]error, nProg*nCell)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for pi := 0; pi < nProg; pi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			cell, err := build(pi)
			<-sem
			if err != nil {
				buildErr[pi] = err
				return
			}
			for ci := 0; ci < nCell; ci++ {
				sem <- struct{}{}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					cellErr[pi*nCell+ci] = cell(ci)
				}()
			}
		}()
	}
	wg.Wait()
	for _, err := range append(buildErr, cellErr...) {
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteTimings renders a run's per-cell wall-clock summary, slowest cell
// first (ties broken by schedule order), followed by the work/wall
// overlap line. Wall-clock figures are machine-dependent; this is
// operational telemetry, never part of the pinned report.
func (r *RunResult) WriteTimings(w *bytes.Buffer) {
	idx := make([]int, len(r.Timings))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return r.Timings[idx[a]].Dur > r.Timings[idx[b]].Dur
	})
	fmt.Fprintf(w, "per-cell wall clock (slowest first):\n")
	for _, i := range idx {
		t := r.Timings[i]
		fmt.Fprintf(w, "  %-10s %-6s %10.3fs\n", t.Program, t.Cell, t.Dur.Seconds())
	}
	cpu := r.CPUTime()
	speedup := 1.0
	if r.Wall > 0 {
		speedup = cpu.Seconds() / r.Wall.Seconds()
	}
	fmt.Fprintf(w, "total cell time %.3fs over %.3fs wall (%.2fx overlap)\n",
		cpu.Seconds(), r.Wall.Seconds(), speedup)
}
