// Package lifetime is a Go reproduction of Barrett & Zorn, "Using Lifetime
// Predictors to Improve Memory Allocation Performance" (PLDI 1993): a
// profile-driven system that predicts, at allocation time, which objects
// will be short-lived — keyed by allocation site (call-chain) and request
// size — and segregates them into small bump-allocated arenas over a
// general-purpose first-fit heap.
//
// The package is the public facade over the building blocks in internal/:
//
//   - allocation traces (record with a Recorder, or generate with the five
//     calibrated synthetic program models standing in for the paper's
//     CFRAC, ESPRESSO, GAWK, GHOST and PERL workloads);
//   - training: per-site lifetime statistics summarized with P² quantile
//     histograms, and the all-short-lived predictor selection rule;
//   - prediction: self and true (cross-input) prediction with 4-byte size
//     rounding for site mapping, configurable call-chain abstraction
//     (complete chain with recursion elimination, length-N sub-chains, or
//     size only), plus call-chain encryption;
//   - simulation: first-fit (Knuth), BSD, and lifetime-predicting arena
//     allocators with instruction-cost and heap-size accounting;
//   - the experiment pipeline regenerating every table in the paper.
//
// # Quick start
//
//	m := lifetime.ModelByName("gawk")
//	train, _ := lifetime.GenerateTrace(m, lifetime.TrainInput, 1, 0.05)
//	test, _ := lifetime.GenerateTrace(m, lifetime.TestInput, 2, 0.05)
//
//	pred, _ := lifetime.Train(train, lifetime.DefaultProfileConfig())
//	eval, _ := lifetime.Evaluate(test, pred)
//	fmt.Printf("predicted short-lived: %.1f%%\n", eval.PredictedShortPct())
//
//	res, _ := lifetime.Simulate(test, lifetime.NewArenaAllocator(), pred)
//	fmt.Printf("arena bytes: %.1f%%  heap: %dKB\n",
//		res.ArenaBytePct, res.MaxHeap>>10)
//
// See examples/ for runnable programs, cmd/lptables for the full
// paper-vs-measured table harness, and DESIGN.md / EXPERIMENTS.md for the
// reproduction methodology and results.
package lifetime

import (
	"io"

	"repro/internal/apptrace"
	"repro/internal/bumparena"
	"repro/internal/callchain"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/gcsim"
	"repro/internal/heapsim"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Core data types, re-exported.
type (
	// Trace is an allocation-event trace; time is bytes allocated.
	Trace = trace.Trace
	// Event is one allocation or free.
	Event = trace.Event
	// Object is a per-object record with its lifetime in bytes.
	Object = trace.Object
	// ObjectID identifies an object within a trace.
	ObjectID = trace.ObjectID
	// TraceStats summarizes a trace (Table 2 metrics).
	TraceStats = trace.Stats

	// ChainTable interns function names and call-chains.
	ChainTable = callchain.Table
	// ChainID identifies an interned call-chain.
	ChainID = callchain.ChainID

	// Recorder instruments a Go program to emit a Trace.
	Recorder = apptrace.Recorder

	// Model is a synthetic workload model.
	Model = synth.Model
	// WorkloadInput selects a model's training or test input.
	WorkloadInput = synth.Input

	// ProfileConfig controls site keying and predictor admission.
	ProfileConfig = profile.Config
	// SiteDB is a trained per-site lifetime database.
	SiteDB = profile.DB
	// SiteStats holds one site's lifetime statistics.
	SiteStats = profile.SiteStats
	// Predictor answers "will this allocation be short-lived?".
	Predictor = profile.Predictor
	// Eval holds prediction-effectiveness metrics (Tables 4-6).
	Eval = profile.Eval

	// Allocator is the allocator-simulator interface.
	Allocator = heapsim.Allocator
	// FirstFitAllocator simulates Knuth's boundary-tag heap: first fit
	// with a roving pointer, or best fit over the same free list.
	FirstFitAllocator = heapsim.FirstFit
	// BSDAllocator simulates the 4.2BSD power-of-two malloc.
	BSDAllocator = heapsim.BSD
	// ArenaAllocator simulates the paper's lifetime-predicting allocator.
	ArenaAllocator = heapsim.Arena
	// SiteArenaAllocator gives every predicted site its own arena pool,
	// isolating misprediction pollution (a future-work variant).
	SiteArenaAllocator = heapsim.SiteArena
	// OpCounts are allocator operation counters for the cost model.
	OpCounts = heapsim.OpCounts
	// PerOpCost is an instructions-per-alloc/free summary.
	PerOpCost = costmodel.PerOp

	// BumpAllocator is the working (non-simulated) lifetime-predicting
	// byte-buffer allocator prototype, trained from runtime.Callers
	// chains — the prototype the paper's conclusion calls for.
	BumpAllocator = bumparena.Allocator
	// BumpConfig sizes the prototype's arenas and training threshold.
	BumpConfig = bumparena.Config
	// BumpSiteDB is the prototype's trained site database.
	BumpSiteDB = bumparena.SiteDB
	// BumpStats counts the prototype's allocation paths.
	BumpStats = bumparena.Stats

	// GCConfig sizes the generational-collector simulator (extension).
	GCConfig = gcsim.Config
	// GCStats reports a generational-collector run's copying work.
	GCStats = gcsim.Stats

	// ExperimentConfig parameterizes the table experiments.
	ExperimentConfig = core.Config
	// Artifacts bundles a model's generated traces and trained predictor.
	Artifacts = core.Artifacts
	// SimResult summarizes one allocator simulation.
	SimResult = core.SimResult

	// ObsCollector records metrics, a timeline, and structured events
	// from an observed simulation; pass one as Simulate's optional
	// trailing argument.
	ObsCollector = obs.Collector
	// ObsOptions configures an ObsCollector.
	ObsOptions = obs.Options
	// ObsSnapshot is a serializable view of one observed run (what
	// `lpsim -obs` writes and `lpstats` renders).
	ObsSnapshot = obs.Snapshot
	// ObsPredSite attributes mispredictions (false-positive cost, false
	// negatives) to one allocation site in ObsSnapshot.PredSites.
	ObsPredSite = obs.PredSite

	// TraceSource streams allocation events one columnar block per
	// NextBlock call (io.EOF marks a clean end); the whole pipeline —
	// generation, training, simulation, the CLI tools — runs over it at
	// constant memory.
	TraceSource = trace.Source
	// TraceMeta is a source's identity and trailer totals (FunctionCalls
	// and NonHeapRefs are only final once NextBlock has returned io.EOF
	// for trailer-carrying sources).
	TraceMeta = trace.Meta
	// TraceReader streams a serialized binary trace (the
	// sentinel-terminated LPTRACE2 format WriteTrace and
	// TraceStreamWriter write).
	TraceReader = trace.Reader
	// TraceStreamWriter writes events incrementally in the streaming
	// binary format; Close writes the trailer.
	TraceStreamWriter = trace.Writer
	// ModelSource is a workload model's streaming generator.
	ModelSource = synth.Source
)

// The two inputs every workload model defines.
const (
	TrainInput = synth.Train
	TestInput  = synth.Test
)

// Models returns the five calibrated program models in the paper's order
// (cfrac, espresso, gawk, ghost, perl).
func Models() []*Model { return synth.All() }

// ModelByName returns a model by name, or nil.
func ModelByName(name string) *Model { return synth.ByName(name) }

// GenerateTrace generates a trace from a workload model. Scale 1.0
// reproduces the paper-scale run (millions of objects); smaller values are
// proportionally faster.
func GenerateTrace(m *Model, input WorkloadInput, seed uint64, scale float64) (*Trace, error) {
	return m.Generate(synth.Config{Input: input, Seed: seed, Scale: scale})
}

// GenerateSource returns a streaming generator over the model's events:
// the same sequence GenerateTrace materializes, produced a block per
// NextBlock call with memory bounded by the live-object set.
func GenerateSource(m *Model, input WorkloadInput, seed uint64, scale float64) (*ModelSource, error) {
	return m.Source(synth.Config{Input: input, Seed: seed, Scale: scale})
}

// NewTraceReader opens a streaming reader over a serialized binary
// trace.
func NewTraceReader(r io.Reader) (*TraceReader, error) { return trace.NewReader(r) }

// NewTraceStreamWriter opens a streaming binary trace writer. Events go
// out as they are written; Close appends the trailer totals.
func NewTraceStreamWriter(w io.Writer, meta TraceMeta, tb *ChainTable) (*TraceStreamWriter, error) {
	return trace.NewWriter(w, meta, tb)
}

// SimulateSource replays a streaming source through an allocator —
// Simulate at constant memory. The SimResult (observability snapshot
// included, when the source knows its event count) is identical to
// replaying the materialized trace.
func SimulateSource(src TraceSource, alloc Allocator, pred *Predictor, observers ...*ObsCollector) (SimResult, error) {
	return core.RunSimSource(src, alloc, pred, observers...)
}

// TrainDBSource builds a site database from a streaming source, holding
// only live-object state. With the default exact-count admission rule
// the resulting predictor is identical to Train's over the materialized
// trace.
func TrainDBSource(src TraceSource, cfg ProfileConfig) (*SiteDB, error) {
	return profile.TrainSource(src, cfg)
}

// NewRecorder returns a Recorder for instrumenting a Go program.
func NewRecorder(program, input string) *Recorder {
	return apptrace.NewRecorder(program, input)
}

// DefaultProfileConfig returns the paper's predictor configuration: 32KB
// short-lived threshold, 4-byte size rounding, complete call-chains with
// recursion elimination, and the all-short-lived admission rule.
func DefaultProfileConfig() ProfileConfig { return profile.DefaultConfig() }

// Train builds a site database from a trace and returns its predictor.
func Train(tr *Trace, cfg ProfileConfig) (*Predictor, error) {
	db, err := profile.Train(tr, cfg)
	if err != nil {
		return nil, err
	}
	return db.Predictor(), nil
}

// Evaluate runs a predictor over a trace and reports effectiveness. The
// trace may come from a different execution than the training run: sites
// are mapped by call-chain function names and rounded size, which is the
// paper's true prediction.
func Evaluate(tr *Trace, p *Predictor) (Eval, error) {
	return profile.Evaluate(tr, p)
}

// Annotate computes per-object lifetimes (in bytes allocated) for a trace.
func Annotate(tr *Trace) ([]Object, error) { return trace.Annotate(tr) }

// ComputeStats summarizes a trace.
func ComputeStats(tr *Trace) (TraceStats, error) { return trace.ComputeStats(tr) }

// LifetimeQuantiles returns exact lifetime quantiles for annotated
// objects, byte-weighted when byteWeighted is set (the paper's Table 3).
func LifetimeQuantiles(objs []Object, probs []float64, byteWeighted bool) []float64 {
	return profile.LifetimeQuantiles(objs, probs, byteWeighted)
}

// NewFirstFitAllocator returns a first-fit simulator with the default
// geometry (8-byte header and alignment, 8KB growth chunks).
func NewFirstFitAllocator() *FirstFitAllocator { return heapsim.NewFirstFit() }

// NewBestFitAllocator returns a best-fit simulator: the first-fit heap
// with a search that scans the whole free list for the tightest fit.
func NewBestFitAllocator() *FirstFitAllocator { return heapsim.NewBestFit() }

// NewBSDAllocator returns a 4.2BSD malloc simulator.
func NewBSDAllocator() *BSDAllocator { return heapsim.NewBSD() }

// NewArenaAllocator returns the paper's arena allocator: 16 x 4KB arenas
// over a first-fit general heap.
func NewArenaAllocator() *ArenaAllocator { return heapsim.NewArena() }

// NewSiteArenaAllocator returns the per-site arena variant (2 x 4KB per
// hot site, up to 64 sites); Simulate with a predictor routes each
// predicted-short allocation to its own site's pool.
func NewSiteArenaAllocator() *SiteArenaAllocator { return heapsim.NewSiteArena() }

// Simulate replays a trace through an allocator; a non-nil predictor
// drives the predicted-short hint at each allocation. An optional
// trailing ObsCollector records metrics, a timeline, and structured
// events into SimResult.Obs; without one, behaviour and results are
// identical to the uninstrumented replay.
func Simulate(tr *Trace, alloc Allocator, pred *Predictor, observers ...*ObsCollector) (SimResult, error) {
	return core.RunSim(tr, alloc, pred, observers...)
}

// NewObsCollector returns an observability collector; see ObsOptions for
// the timeline cadence, heap scanning and live hooks.
func NewObsCollector(opts ObsOptions) *ObsCollector { return obs.NewCollector(opts) }

// WriteObsJSON writes an observability snapshot as JSON (the `lpsim
// -obs` format, rendered by `lpstats`).
func WriteObsJSON(w io.Writer, s *ObsSnapshot) error { return obs.WriteJSON(w, s) }

// ReadObsJSON reads a snapshot written by WriteObsJSON.
func ReadObsJSON(r io.Reader) (*ObsSnapshot, error) { return obs.ReadJSON(r) }

// CostBSD prices a BSD run's operation counts with the paper-anchored
// instruction estimates (Table 9).
func CostBSD(c OpCounts) PerOpCost { return costmodel.BSD(c) }

// CostFirstFit prices a first-fit run's operation counts.
func CostFirstFit(c OpCounts) PerOpCost { return costmodel.FirstFit(c) }

// CostArenaLen4 prices an arena run using length-4 call-chain prediction.
func CostArenaLen4(c OpCounts) PerOpCost { return costmodel.ArenaLen4(c) }

// CostArenaCCE prices an arena run using call-chain encryption, amortizing
// the per-call key maintenance over allocations.
func CostArenaCCE(c OpCounts, callsPerAlloc float64) PerOpCost {
	return costmodel.ArenaCCE(c, callsPerAlloc)
}

// WriteTrace writes a trace in the compact binary format, the same
// LPTRACE2 stream TraceStreamWriter writes: the workload totals trail
// the events, and no event count is recorded.
func WriteTrace(w io.Writer, tr *Trace) error { return trace.WriteBinary(w, tr) }

// ReadTrace reads a trace written by WriteTrace.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.ReadBinary(r) }

// WriteTraceText and ReadTraceText use the human-readable text format.
func WriteTraceText(w io.Writer, tr *Trace) error { return trace.WriteText(w, tr) }

// ReadTraceText reads the text format.
func ReadTraceText(r io.Reader) (*Trace, error) { return trace.ReadText(r) }

// MergeTraces interleaves per-goroutine (sharded) traces by byte clock
// into one trace, re-basing object ids and re-interning chains. Use one
// Recorder per goroutine, then merge.
func MergeTraces(traces []*Trace) (*Trace, error) { return trace.Merge(traces) }

// Experiments returns the experiment configuration used by cmd/lptables
// and the benchmarks: the paper-faithful setup at the given scale.
func Experiments(scale float64) ExperimentConfig { return core.DefaultConfig(scale) }

// DefaultBumpConfig returns the prototype allocator's paper-mirroring
// parameters: 16 x 4KB arenas, 32KB threshold, length-4 PC chains.
func DefaultBumpConfig() BumpConfig { return bumparena.DefaultConfig() }

// NewBumpTraining returns a prototype allocator in training mode; call
// Finish to obtain the site database.
func NewBumpTraining(cfg BumpConfig) *BumpAllocator { return bumparena.NewTraining(cfg) }

// NewBumpPredicting returns a prototype allocator that bump-allocates
// buffers at sites the database predicts short-lived.
func NewBumpPredicting(cfg BumpConfig, db *BumpSiteDB) *BumpAllocator {
	return bumparena.NewPredicting(cfg, db)
}

// DefaultGCConfig returns the generational-collector extension's default
// geometry: a 256KB nursery over a 4MB old-generation budget.
func DefaultGCConfig() GCConfig { return gcsim.DefaultConfig() }

// SimulateGC replays a trace through the two-generation copying-collector
// simulator. A non-nil predictor enables pretenuring: allocations NOT
// predicted short-lived go directly to the old generation, quantifying the
// paper's claim that lifetime prediction helps generational collectors.
func SimulateGC(tr *Trace, cfg GCConfig, pred *Predictor) (GCStats, error) {
	return gcsim.Run(tr, cfg, pred)
}
