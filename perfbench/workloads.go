package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/heapsim"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Every workload runs the experiment at the scale of the committed
// goldens, on two workers.
const (
	scale      = 0.02
	workers    = 2
	goldenSeed = 1993
)

// The cluster workload runs lpcluster's defaults.
var (
	clusterTenants = []string{"cfrac", "espresso", "gawk"}
	clusterPools   = []string{"4xarena", "4xfirstfit", "2xbsd"}
)

// engineCells names the 18 per-program cells of an Engine run, in
// schedule order.
var engineCells = []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "L",
	"A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8"}

// workload is one named input to the benchmark: the artifact build its
// set-up times, and the entry point its timed call makes.
type workload struct {
	name string
	// units is how many units (cells, scenarios, jobs) one call runs; a
	// failed call fails all of them.
	unit  string
	units int
	// golden is the committed report the output is checked against,
	// relative to the repository root (matrix checks bench files).
	golden string
	// replays is how often each program's Test input is replayed per
	// call, 0 when cells replay different inputs.
	replays int
	setup   func(b *bench) error
	call    func(b *bench) (out []byte, failed int, err error)
}

var workloads = []*workload{
	{
		name: "tables", unit: "cells", units: len(engineCells) * len(core.ProgramOrder),
		golden: "cmd/lptables/testdata/golden-scale0.02-seed1993.txt",
		setup:  setupEngine, call: callTables,
	},
	{
		name: "tournament", unit: "cells",
		units:  len(core.PolicyNames()) * len(core.TournamentAllocators) * len(core.ProgramOrder),
		golden: "cmd/lptables/testdata/golden-tournament-scale0.02-seed1993.txt",
		// Every policy x allocator cell replays each program's Test input.
		replays: len(core.PolicyNames()) * len(core.TournamentAllocators),
		setup:   setupEngine, call: callTournament,
	},
	{
		name: "cluster", unit: "scenarios", units: len(cluster.PolicyNames()) * len(clusterPools),
		golden: "cmd/lpcluster/testdata/golden-cluster-scale0.02-seed1993.txt",
		// Each scenario replays every tenant free and stressed.
		replays: 2 * len(cluster.PolicyNames()) * len(clusterPools),
		setup:   setupCluster, call: callCluster,
	},
	{
		name: "matrix", unit: "jobs",
		units:   len(core.ProgramOrder) * len(core.AllocatorNames) * len(core.PredictorModes),
		replays: len(core.AllocatorNames) * len(core.PredictorModes),
		setup:   setupMatrix, call: callMatrix,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// bench is one set-up of a workload and what its calls leave behind.
type bench struct {
	wl   *workload
	cfg  core.Config
	seed uint64
	// rec is nil on untraced calls; parent is the span new spans nest in.
	rec    *recorder
	parent int

	// models are the programs the set-up built or trained, in program
	// order, and events the summed length of their Test inputs.
	models []*synth.Model
	events int

	eng    *core.Engine
	arts   []*core.Artifacts // tables, tournament: the Engine's built programs
	runner *core.MatrixRunner
	bare   []core.SimResult // matrix: one firstfit replay per model

	// Figures a traced call reads from the entry point.
	engineRes *core.RunResult
	tournCol  *obs.Collector
	gateS     float64 // -1 until a call runs a gate
}

func newBench(wl *workload, seed uint64) *bench {
	cfg := core.DefaultConfig(scale)
	cfg.SeedBase = seed
	return &bench{wl: wl, cfg: cfg, seed: seed, gateS: -1}
}

// setupEngine builds and warms every program's artifacts, serially, in
// the Engine the tables and tournament calls read them from.
func setupEngine(b *bench) error {
	b.eng = core.NewEngine(b.cfg)
	for _, m := range b.cfg.Models {
		id := b.rec.begin("build:"+m.Name, b.parent)
		a, err := b.eng.Artifacts(m.Name)
		if err != nil {
			return err
		}
		b.rec.end(id, int64(len(a.TrainTrace.Events)+len(a.TestTrace.Events)))
		b.arts = append(b.arts, a)
		b.models = append(b.models, m)
		b.events += len(a.TestTrace.Events)
	}
	return nil
}

// setupCluster builds the tenants' artifacts as cluster.RunMatrix does.
// RunMatrix keeps no artifact cache, so the timed call builds them again;
// the set-up keeps only their Test lengths, so that the call's peak heap
// holds RunMatrix's copies alone.
func setupCluster(b *bench) error {
	for _, name := range clusterTenants {
		m := synth.ByName(name)
		id := b.rec.begin("build:"+name, b.parent)
		a, err := b.cfg.Build(m)
		if err != nil {
			return err
		}
		b.rec.end(id, int64(len(a.TrainTrace.Events)+len(a.TestTrace.Events)))
		b.models = append(b.models, m)
		b.events += len(a.TestTrace.Events)
	}
	return nil
}

// setupMatrix runs one bare firstfit job per model, which trains both
// predictors from streaming sources and counts each model's Test events.
func setupMatrix(b *bench) error {
	b.runner = core.NewMatrixRunner(b.cfg)
	for _, m := range b.cfg.Models {
		id := b.rec.begin("train:"+m.Name, b.parent)
		res, err := b.runner.Run(core.MatrixJob{Model: m.Name, Allocator: "firstfit", Predictor: "none"}, nil)
		if err != nil {
			return err
		}
		b.rec.end(id, res.Counts.Allocs+res.Counts.Frees)
		b.bare = append(b.bare, res)
		b.models = append(b.models, m)
		b.events += int(res.Counts.Allocs + res.Counts.Frees)
	}
	return nil
}

func callTables(b *bench) ([]byte, int, error) {
	t0 := time.Now()
	res, err := b.eng.Run(core.Spec{Workers: workers})
	if err != nil {
		return nil, b.wl.units, err
	}
	b.engineRes = res
	for _, t := range res.Timings {
		b.rec.add("cell:"+t.Program+"/"+t.Cell, b.parent, t0.Add(t.Start), t.Dur, 1)
	}
	return res.Output, 0, nil
}

func callTournament(b *bench) ([]byte, int, error) {
	spec := core.TournamentSpec{
		Workers: workers,
		Gate:    func() error { return b.gate("gate:oracles", oracleGate) },
	}
	if b.rec != nil {
		b.tournCol = obs.NewCollector(obs.Options{Label: "tournament"})
		spec.Collector = b.tournCol
	}
	res, err := b.eng.RunTournament(spec)
	if err != nil {
		return nil, b.wl.units, err
	}
	return res.Output, 0, nil
}

func callCluster(b *bench) ([]byte, int, error) {
	if err := b.gate("gate:pools", poolGate); err != nil {
		return nil, b.wl.units, fmt.Errorf("conformance gate: %w", err)
	}
	res, err := cluster.RunMatrix(cluster.MatrixConfig{
		Core:      b.cfg,
		Tenants:   clusterTenants,
		Policies:  cluster.PolicyNames(),
		Pools:     clusterPools,
		Admission: cluster.Reject,
		Workers:   workers,
	})
	if err != nil {
		return nil, b.wl.units, err
	}
	var buf bytes.Buffer
	if err := res.WriteReport(&buf); err != nil {
		return nil, b.wl.units, err
	}
	return buf.Bytes(), 0, nil
}

// callMatrix is lpbench -heapscan over the full matrix: every job with a
// heap-scanning collector, rendered as one bench file.
func callMatrix(b *bench) ([]byte, int, error) {
	jobs, err := core.ParseMatrix("all/all/all")
	if err != nil {
		return nil, b.wl.units, err
	}
	core.SortJobs(jobs)
	results := b.runner.RunAll(jobs, workers, heapScanCollector)
	file := &core.BenchFile{Label: "perfbench", Scale: scale, SeedBase: b.seed}
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			continue
		}
		file.Runs = append(file.Runs, core.NewBenchRun(r.Job, r.Res))
	}
	var buf bytes.Buffer
	if err := core.WriteBench(&buf, file); err != nil {
		return nil, b.wl.units, err
	}
	return buf.Bytes(), failed, nil
}

// heapScanCollector is lpbench -heapscan's collector for one job.
func heapScanCollector(j core.MatrixJob) *obs.Collector {
	return obs.NewCollector(obs.Options{Label: j.String(), HeapScan: true})
}

// gate runs a conformance gate under a span and keeps its wall time.
func (b *bench) gate(name string, run func(b *bench) error) error {
	id := b.rec.begin(name, b.parent)
	outer := b.parent
	if b.rec != nil {
		b.parent = id
	}
	t0 := time.Now()
	err := run(b)
	b.gateS = time.Since(t0).Seconds()
	b.parent = outer
	b.rec.end(id, 0)
	return err
}

// oracleGate is lptables -tournament's gate: a property run in which
// every zoo policy's verdicts drive every checkable allocator through
// the differential suite.
func oracleGate(b *bench) error {
	fs, err := check.Factories()
	if err != nil {
		return err
	}
	return check.RunOracles(b.seed, 3, check.GenConfig{}, fs, check.Options{Stride: 16}, nil)
}

// poolGate is lpcluster's gate: every pool shape audited with the
// ledger-reconciled suite over two generated traces.
func poolGate(b *bench) error {
	for _, spec := range clusterPools {
		id := b.rec.begin("gate:pool:"+spec, b.parent)
		kinds, err := cluster.ParsePoolSpec(spec)
		if err != nil {
			return err
		}
		for s := b.seed; s < b.seed+2; s++ {
			members := make([]heapsim.Allocator, len(kinds))
			for i, k := range kinds {
				if members[i], err = core.NewAllocator(k); err != nil {
					return err
				}
			}
			p, err := heapsim.NewPool("gate:"+spec, members...)
			if err != nil {
				return err
			}
			tr := check.GenTrace(s, check.GenConfig{})
			if err := check.AuditPool(trace.NewSliceSource(tr), spec, p, check.Options{
				Stride:  32,
				Predict: check.GenPredict(1 << 12),
			}); err != nil {
				return err
			}
		}
		b.rec.end(id, 2)
	}
	return nil
}
