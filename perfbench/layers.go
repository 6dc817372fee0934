package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/heapsim"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

// layerMetric is one per-layer figure of the traced run and the end-to-end
// metric a change to it should move, on which workloads. Counts carry no
// prediction: they are the bases the timings divide by.
type layerMetric struct {
	name, unit string
	moves, on  string
}

var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []layerMetric {
	ms := []layerMetric{
		{"synth.gen_ns_per_event", "ns", "wall_s", "cluster,matrix"},
		{"synth.gen_events", "count", "", ""},
		{"trace.annotate_ns_per_event", "ns", "setup_s", "tables,tournament,cluster"},
		{"trace.annotate_events", "count", "", ""},
		{"trace.merge_ns_per_event", "ns", "wall_s", "cluster"},
		{"trace.merge_events", "count", "", ""},
		{"profile.train_ns_per_event", "ns", "setup_s", "all"},
		{"profile.train_events", "count", "", ""},
		{"profile.eval_ns_per_object", "ns", "wall_s", "tables"},
		{"profile.eval_objects", "count", "", ""},
	}
	for _, p := range core.PolicyNames() {
		ms = append(ms, layerMetric{"profile.zoo_train_s." + p, "s", "wall_s", "tournament"})
	}
	ms = append(ms, layerMetric{"profile.zoo_train_programs", "count", "", ""})
	for _, p := range core.PolicyNames() {
		on := "tournament"
		if p == "paper" {
			on = "all"
		}
		ms = append(ms, layerMetric{"profile.predict_ns_per_alloc." + p, "ns", "wall_s", on})
	}
	ms = append(ms, layerMetric{"profile.predict_allocs", "count", "", ""})
	for _, a := range core.TournamentAllocators {
		ms = append(ms,
			layerMetric{"heapsim." + a + ".ns_per_event", "ns", "wall_s", "every workload running " + a},
			layerMetric{"heapsim." + a + ".search_per_alloc", "ratio", "wall_s", "every workload running " + a})
	}
	ms = append(ms,
		layerMetric{"heapsim.events", "count", "", ""},
		layerMetric{"heapsim.allocs", "count", "", ""},
		layerMetric{"heapsim.walk_us_per_sample", "us", "wall_s", "matrix"},
		layerMetric{"heapsim.walk_samples", "count", "", ""},
		layerMetric{"core.replay_ns_per_event", "ns", "wall_s", "tables"},
		layerMetric{"core.replay_events", "count", "", ""},
		layerMetric{"core.observe_ns_per_event", "ns", "wall_s", "tournament,matrix"},
		layerMetric{"core.observe_ratio", "ratio", "wall_s", "tournament,matrix"},
		layerMetric{"core.heapscan_ns_per_event", "ns", "wall_s", "matrix"},
	)
	for _, c := range engineCells {
		ms = append(ms, layerMetric{"core.cell_s." + c, "s", "wall_s", "tables"})
	}
	return append(ms,
		layerMetric{"core.engine_overlap", "ratio", "wall_s", "tables"},
		layerMetric{"core.engine_wait_s", "s", "wall_s", "tables"},
		layerMetric{"core.engine_cells", "count", "", ""},
		layerMetric{"core.tournament_cell_ms.mean", "ms", "wall_s", "tournament"},
		layerMetric{"core.tournament_cell_ms.max", "ms", "wall_s", "tournament"},
		layerMetric{"core.tournament_cells", "count", "", ""},
		layerMetric{"core.matrix_job_ms.p50", "ms", "wall_s", "matrix"},
		layerMetric{"core.matrix_job_ms.p85", "ms", "wall_s", "matrix"},
		layerMetric{"core.matrix_jobs", "count", "", ""},
		layerMetric{"check.gate_s", "s", "wall_s", "tournament,cluster"},
		layerMetric{"cluster.run_ns_per_event", "ns", "wall_s", "cluster"},
		layerMetric{"cluster.run_events", "count", "", ""},
		layerMetric{"cluster.rejected_byte_pct", "%", "wall_s", "cluster"},
		layerMetric{"cluster.scenarios", "count", "", ""},
		layerMetric{"runtime.alloc_mb", "MiB", "cpu_s,wall_s,peak_heap_mb", "all"},
		layerMetric{"runtime.gc_cycles", "count", "cpu_s,wall_s,peak_heap_mb", "all"},
		layerMetric{"runtime.gc_cpu_s", "s", "cpu_s,wall_s,peak_heap_mb", "all"},
	)
}

// layers drives every layer's public functions over one workload's own
// programs, serially, after its timed calls. Figures the traced call
// already read from an entry point are used as they are; a workload whose
// call has no such entry point gets them by calling it here.
type layers struct {
	b   *bench
	m   map[string]metric
	eng *core.Engine
}

func layerPass(b *bench) (map[string]metric, error) {
	l := &layers{b: b, m: map[string]metric{}, eng: b.eng}
	arts, err := l.artifacts()
	if err != nil {
		return nil, err
	}
	clocks, err := l.replay(arts)
	if err != nil {
		return nil, err
	}
	steps := []func([]*core.Artifacts) error{
		l.synth, l.annotate, l.merge, l.train, l.eval, l.zoo,
		func(arts []*core.Artifacts) error { return l.heapsim(arts, clocks) },
		l.engine, l.tournament, l.matrix, l.gate, l.cluster,
	}
	for _, step := range steps {
		if err := step(arts); err != nil {
			return nil, err
		}
	}
	return l.m, nil
}

func (l *layers) put(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

// nsPer is d spread over n units of work.
func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(max(n, 1)) }

// perUnit puts a timing per unit of work next to the count it divides by.
func (l *layers) perUnit(name, countName string, d time.Duration, n int) {
	l.put(name, nsPer(d, n), "ns")
	l.put(countName, float64(n), "count")
}

// artifacts returns the workload's materialized programs. The cluster
// and matrix set-ups keep none, so their programs are built here.
func (l *layers) artifacts() ([]*core.Artifacts, error) {
	if len(l.b.arts) > 0 {
		return l.b.arts, nil
	}
	var arts []*core.Artifacts
	for _, m := range l.b.models {
		id := l.b.rec.begin("layer:build:"+m.Name, 0)
		a, err := l.b.cfg.Build(m)
		if err != nil {
			return nil, err
		}
		l.b.rec.end(id, int64(len(a.TrainTrace.Events)+len(a.TestTrace.Events)))
		arts = append(arts, a)
	}
	return arts, nil
}

// each runs f once per program under a span; f times its own busy part
// and returns it with the work it covered.
func (l *layers) each(name string, arts []*core.Artifacts, f func(a *core.Artifacts) (int, time.Duration, error)) (time.Duration, int, error) {
	parent := l.b.rec.begin("layer:"+name, 0)
	var total time.Duration
	n := 0
	for _, a := range arts {
		id := l.b.rec.begin(name+":"+a.Model.Name, parent)
		c, d, err := f(a)
		l.b.rec.end(id, int64(c))
		if err != nil {
			return 0, 0, fmt.Errorf("%s %s: %w", name, a.Model.Name, err)
		}
		total += d
		n += c
	}
	l.b.rec.end(parent, int64(n))
	return total, n, nil
}

func (l *layers) synth(arts []*core.Artifacts) error {
	blk := trace.NewEventBlock(trace.DefaultBlockLen)
	d, n, err := l.each("synth.gen", arts, func(a *core.Artifacts) (int, time.Duration, error) {
		src, err := a.Model.Source(l.b.cfg.GenConfig(synth.Test))
		if err != nil {
			return 0, 0, err
		}
		n := 0
		t0 := time.Now()
		for {
			err := src.NextBlock(blk)
			if err == io.EOF {
				break
			}
			if err != nil {
				return n, 0, err
			}
			n += blk.N
		}
		return n, time.Since(t0), nil
	})
	l.perUnit("synth.gen_ns_per_event", "synth.gen_events", d, n)
	return err
}

func (l *layers) annotate(arts []*core.Artifacts) error {
	d, n, err := l.each("trace.annotate", arts, func(a *core.Artifacts) (int, time.Duration, error) {
		t0 := time.Now()
		for _, tr := range []*trace.Trace{a.TrainTrace, a.TestTrace} {
			if _, err := trace.Annotate(tr); err != nil {
				return 0, 0, err
			}
		}
		return len(a.TrainTrace.Events) + len(a.TestTrace.Events), time.Since(t0), nil
	})
	l.perUnit("trace.annotate_ns_per_event", "trace.annotate_events", d, n)
	return err
}

// merge drains the programs' Test inputs through the keyed interleaver
// the cluster simulator merges its tenants with.
func (l *layers) merge(arts []*core.Artifacts) error {
	shards := make([]trace.Source, len(arts))
	keys := make([]string, len(arts))
	for i, a := range arts {
		shards[i], keys[i] = trace.NewTraceColumns(a.TestTrace), a.Model.Name
	}
	id := l.b.rec.begin("layer:trace.merge", 0)
	it, err := trace.NewKeyedInterleaver(shards, keys)
	if err != nil {
		return err
	}
	n := 0
	t0 := time.Now()
	for {
		_, _, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("trace.merge: %w", err)
		}
		n++
	}
	d := time.Since(t0)
	l.b.rec.end(id, int64(n))
	l.perUnit("trace.merge_ns_per_event", "trace.merge_events", d, n)
	return nil
}

// train retrains the paper predictor the way the workload's set-up does:
// from annotated objects, or from a streaming source for the matrix.
func (l *layers) train(arts []*core.Artifacts) error {
	cfg := l.b.cfg
	d, n, err := l.each("profile.train", arts, func(a *core.Artifacts) (int, time.Duration, error) {
		n := len(a.TrainTrace.Events)
		if l.b.wl.name != "matrix" {
			t0 := time.Now()
			profile.TrainObjects(a.TrainTrace.Table, a.TrainObjs, cfg.Profile)
			return n, time.Since(t0), nil
		}
		src, err := a.Model.Source(cfg.GenConfig(synth.Train))
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		_, err = profile.TrainSource(src, cfg.Profile)
		return n, time.Since(t0), err
	})
	l.perUnit("profile.train_ns_per_event", "profile.train_events", d, n)
	return err
}

func (l *layers) eval(arts []*core.Artifacts) error {
	d, n, err := l.each("profile.eval", arts, func(a *core.Artifacts) (int, time.Duration, error) {
		t0 := time.Now()
		profile.EvaluateObjects(a.TestTrace.Table, a.TestObjs, a.TrainPredictor)
		return len(a.TestObjs), time.Since(t0), nil
	})
	l.perUnit("profile.eval_ns_per_object", "profile.eval_objects", d, n)
	return err
}

// zoo trains every tournament policy on every program, then asks each
// trained oracle, bound to the Test table, about every Test allocation.
func (l *layers) zoo(arts []*core.Artifacts) error {
	allocs := 0
	for _, p := range core.OraclePolicies() {
		oracles := map[*core.Artifacts]profile.Oracle{}
		d, _, err := l.each("profile.zoo_train."+p.Name, arts, func(a *core.Artifacts) (int, time.Duration, error) {
			t0 := time.Now()
			o, err := p.Train(a, l.b.cfg.Profile)
			oracles[a] = o
			return 1, time.Since(t0), err
		})
		if err != nil {
			return err
		}
		l.put("profile.zoo_train_s."+p.Name, d.Seconds(), "s")
		d, n, err := l.each("profile.predict."+p.Name, arts, func(a *core.Artifacts) (int, time.Duration, error) {
			bound := profile.BindOracle(oracles[a], a.TestTrace.Table)
			n := 0
			t0 := time.Now()
			for i := range a.TestTrace.Events {
				if ev := &a.TestTrace.Events[i]; ev.Kind == trace.KindAlloc {
					bound.PredictShort(ev.Chain, ev.Size)
					n++
				}
			}
			return n, time.Since(t0), nil
		})
		if err != nil {
			return err
		}
		l.put("profile.predict_ns_per_alloc."+p.Name, nsPer(d, n), "ns")
		allocs = n
	}
	l.put("profile.zoo_train_programs", float64(len(arts)), "count")
	l.put("profile.predict_allocs", float64(allocs), "count")
	return nil
}

// replay times core.RunSimOracle over each program's Test columns with the
// paper predictor on every matrix allocator: bare, with a collector, and
// with a heap-scanning collector. It returns each program's timeline
// sample clocks from its scanned firstfit replay.
func (l *layers) replay(arts []*core.Artifacts) (map[*core.Artifacts][]int64, error) {
	clocks := map[*core.Artifacts][]int64{}
	var bare, observed, scanned time.Duration
	run := func(a *core.Artifacts, src *trace.ColumnsSource, alloc string, col *obs.Collector) (core.SimResult, time.Duration, error) {
		al, err := core.NewAllocator(alloc)
		if err != nil {
			return core.SimResult{}, 0, err
		}
		oracle := a.TrainPredictor.NewMapper(a.TestTrace.Table)
		src.Reset()
		t0 := time.Now()
		res, err := core.RunSimOracle(src, al, oracle, col)
		return res, time.Since(t0), err
	}
	_, n, err := l.each("core.replay", arts, func(a *core.Artifacts) (int, time.Duration, error) {
		src := trace.NewTraceColumns(a.TestTrace)
		for _, alloc := range core.AllocatorNames {
			_, d, err := run(a, src, alloc, nil)
			if err != nil {
				return 0, 0, err
			}
			bare += d
			_, d, err = run(a, src, alloc, obs.NewCollector(obs.Options{Label: alloc}))
			if err != nil {
				return 0, 0, err
			}
			observed += d
			res, d, err := run(a, src, alloc, obs.NewCollector(obs.Options{Label: alloc, HeapScan: true}))
			if err != nil {
				return 0, 0, err
			}
			scanned += d
			if alloc == "firstfit" {
				for _, s := range res.Obs.Timeline {
					clocks[a] = append(clocks[a], s.Clock)
				}
			}
		}
		return len(core.AllocatorNames) * len(a.TestTrace.Events), 0, nil
	})
	if err != nil {
		return nil, err
	}
	l.perUnit("core.replay_ns_per_event", "core.replay_events", bare, n)
	l.put("core.observe_ns_per_event", nsPer(observed-bare, n), "ns")
	l.put("core.observe_ratio", observed.Seconds()/bare.Seconds(), "ratio")
	l.put("core.heapscan_ns_per_event", nsPer(scanned-observed, n), "ns")
	return clocks, nil
}

// heapsim drives every tournament allocator directly over each program's
// Test columns with precomputed paper verdicts, timing 512-event blocks,
// and walks the walkable ones' layouts at the replay's timeline samples.
func (l *layers) heapsim(arts []*core.Artifacts, clocks map[*core.Artifacts][]int64) error {
	var walk time.Duration
	walks, events, allocs := 0, 0, 0
	busy := map[string]time.Duration{}
	search := map[string]int64{}
	parent := l.b.rec.begin("layer:heapsim", 0)
	for _, a := range arts {
		cols := trace.NewColumns(a.TestTrace.Events)
		short := make([]bool, cols.Len())
		site := make([]uint64, cols.Len())
		mapper := a.TrainPredictor.NewMapper(a.TestTrace.Table)
		for i, k := range cols.Kinds {
			if k != trace.KindAlloc {
				continue
			}
			allocs++
			key, s := mapper.Site(cols.Chains[i], cols.Sizes[i])
			short[i] = s
			// Any fold of the site key works: it only names the pool.
			site[i] = (uint64(key.Chain)+1)*0x9e3779b97f4a7c15 ^ uint64(key.Size)*0xc2b2ae3d27d4eb4f
		}
		events += cols.Len()
		for _, name := range core.TournamentAllocators {
			id := l.b.rec.begin("heapsim."+name+":"+a.Model.Name, parent)
			var al heapsim.Allocator
			switch name {
			case "sitearena":
				al = heapsim.NewSiteArena()
			case "custom":
				al = heapsim.NewCustom(a.TrainDB.TopSizes(16))
			default:
				var err error
				if al, err = core.NewAllocator(name); err != nil {
					return err
				}
			}
			d, w, nw, err := driveAllocator(al, cols, short, site, clocks[a])
			if err != nil {
				return fmt.Errorf("heapsim %s %s: %w", name, a.Model.Name, err)
			}
			l.b.rec.end(id, int64(cols.Len()))
			busy[name] += d
			walk += w
			walks += nw
			c := al.Counts()
			search[name] += c.FFProbes + c.ArenaScanSteps + c.BSDCarves + c.SegCarves
		}
	}
	l.b.rec.end(parent, int64(events*len(core.TournamentAllocators)))
	for _, name := range core.TournamentAllocators {
		l.put("heapsim."+name+".ns_per_event", nsPer(busy[name], events), "ns")
		l.put("heapsim."+name+".search_per_alloc", float64(search[name])/float64(max(allocs, 1)), "ratio")
	}
	l.put("heapsim.events", float64(events), "count")
	l.put("heapsim.allocs", float64(allocs), "count")
	l.put("heapsim.walk_us_per_sample", nsPer(walk, walks)/1e3, "us")
	l.put("heapsim.walk_samples", float64(walks), "count")
	return nil
}

// driveAllocator replays cols through al, timing each 512-event block.
// When the byte clock reaches the next sample clock it pauses the block
// timer and times one Regions+Walk of a walkable allocator.
func driveAllocator(al heapsim.Allocator, cols *trace.Columns, short []bool, site []uint64, clocks []int64) (busy, walk time.Duration, walks int, err error) {
	sa, sited := al.(*heapsim.SiteArena)
	wk, walkable := al.(heapsim.Walker)
	var clock int64
	next := 0
	for base := 0; base < cols.Len(); base += trace.DefaultBlockLen {
		end := min(base+trace.DefaultBlockLen, cols.Len())
		t0 := time.Now()
		for i := base; i < end; i++ {
			if cols.Kinds[i] != trace.KindAlloc {
				if err := al.Free(cols.Objs[i]); err != nil {
					return 0, 0, 0, fmt.Errorf("event %d: %w", i, err)
				}
				continue
			}
			if sited && short[i] {
				err = sa.AllocAt(cols.Objs[i], cols.Sizes[i], site[i])
			} else {
				err = al.Alloc(cols.Objs[i], cols.Sizes[i], short[i])
			}
			if err != nil {
				return 0, 0, 0, fmt.Errorf("event %d: %w", i, err)
			}
			clock += cols.Sizes[i]
			if next >= len(clocks) || clock < clocks[next] {
				continue
			}
			for next < len(clocks) && clock >= clocks[next] {
				next++
			}
			if !walkable {
				continue
			}
			busy += time.Since(t0)
			w0 := time.Now()
			spans := 0
			_ = wk.Regions()
			if err := wk.Walk(func(heapsim.Span) error { spans++; return nil }); err != nil {
				return 0, 0, 0, err
			}
			walk += time.Since(w0)
			walks++
			t0 = time.Now()
		}
		busy += time.Since(t0)
	}
	return busy, walk, walks, nil
}

// engineFor returns an Engine over the workload's programs: the set-up's
// own when it has one, else a new one that builds them on first use.
func (l *layers) engineFor(arts []*core.Artifacts) *core.Engine {
	if l.eng == nil {
		cfg := l.b.cfg
		cfg.Models = nil
		for _, a := range arts {
			cfg.Models = append(cfg.Models, a.Model)
		}
		l.eng = core.NewEngine(cfg)
	}
	return l.eng
}

// engine reads the per-cell schedule of an Engine run: each cell's time
// summed over programs, overlap (cell time over wall time), and the time
// cells spent waiting for a worker after their program's build landed,
// summed over cells.
func (l *layers) engine(arts []*core.Artifacts) error {
	res := l.b.engineRes
	if res == nil {
		id := l.b.rec.begin("layer:core.engine", 0)
		var err error
		if res, err = l.engineFor(arts).Run(core.Spec{Workers: workers}); err != nil {
			return err
		}
		l.b.rec.end(id, int64(len(res.Timings)))
	}
	built := map[string]time.Duration{}
	cellS := map[string]float64{}
	var wait time.Duration
	cells := 0
	for _, t := range res.Timings {
		if t.Cell == "build" {
			built[t.Program] = t.Start + t.Dur
		}
	}
	for _, t := range res.Timings {
		if t.Cell == "build" {
			continue
		}
		cellS[t.Cell] += t.Dur.Seconds()
		wait += t.Start - built[t.Program]
		cells++
	}
	for _, c := range engineCells {
		l.put("core.cell_s."+c, cellS[c], "s")
	}
	l.put("core.engine_overlap", res.CPUTime().Seconds()/res.Wall.Seconds(), "ratio")
	l.put("core.engine_wait_s", wait.Seconds(), "s")
	l.put("core.engine_cells", float64(cells), "count")
	return nil
}

// tournament reads the tournament_cell timing family.
func (l *layers) tournament(arts []*core.Artifacts) error {
	col := l.b.tournCol
	if col == nil {
		col = obs.NewCollector(obs.Options{Label: "tournament"})
		id := l.b.rec.begin("layer:core.tournament", 0)
		res, err := l.engineFor(arts).RunTournament(core.TournamentSpec{Workers: workers, Collector: col})
		if err != nil {
			return err
		}
		l.b.rec.end(id, int64(len(res.Cells)))
	}
	ts := col.Snapshot().Timings["tournament_cell"]
	l.put("core.tournament_cell_ms.mean", ts.MeanMicros()/1e3, "ms")
	l.put("core.tournament_cell_ms.max", float64(ts.MaxMicros)/1e3, "ms")
	l.put("core.tournament_cells", float64(ts.Count), "count")
	return nil
}

// matrix times MatrixRunner.Run per job, one job at a time, over the
// workload's programs with lpbench -heapscan's collectors. The matrix
// workload's runner has trained its predictors in the set-up; any other
// workload's first job per program trains them.
func (l *layers) matrix(arts []*core.Artifacts) error {
	var models []string
	for _, a := range arts {
		models = append(models, a.Model.Name)
	}
	jobs, err := core.ParseMatrix(strings.Join(models, ",") + "/all/all")
	if err != nil {
		return err
	}
	core.SortJobs(jobs)
	runner := l.b.runner
	if runner == nil {
		runner = core.NewMatrixRunner(l.b.cfg)
	}
	parent := l.b.rec.begin("layer:core.matrix", 0)
	ms := make([]float64, len(jobs))
	for i, j := range jobs {
		id := l.b.rec.begin("job:"+j.String(), parent)
		t0 := time.Now()
		res, err := runner.Run(j, heapScanCollector(j))
		ms[i] = float64(time.Since(t0)) / 1e6
		l.b.rec.end(id, res.Counts.Allocs+res.Counts.Frees)
		if err != nil {
			return fmt.Errorf("job %s: %w", j, err)
		}
	}
	l.b.rec.end(parent, int64(len(jobs)))
	l.put("core.matrix_job_ms.p50", quantile(ms, 0.5), "ms")
	l.put("core.matrix_job_ms.p85", quantile(ms, 0.85), "ms")
	l.put("core.matrix_jobs", float64(len(ms)), "count")
	return nil
}

// gate reads the traced call's gate time; workloads whose command runs
// no gate time both commands' gates.
func (l *layers) gate([]*core.Artifacts) error {
	g := l.b.gateS
	if g < 0 {
		t0 := time.Now()
		if err := l.b.gate("layer:gate:oracles", oracleGate); err != nil {
			return err
		}
		if err := l.b.gate("layer:gate:pools", poolGate); err != nil {
			return err
		}
		g = time.Since(t0).Seconds()
	}
	l.put("check.gate_s", g, "s")
	return nil
}

// cluster runs every routing policy x lpcluster pool scenario over the
// workload's programs as tenants, free and then stressed at half the free
// peak, with tenants replayed from pre-transposed Test columns.
func (l *layers) cluster(arts []*core.Artifacts) error {
	srcs := make([]*trace.ColumnsSource, len(arts))
	for i, a := range arts {
		srcs[i] = trace.NewTraceColumns(a.TestTrace)
	}
	replay := func(policy string, kinds []string, budget int64) (*cluster.Result, time.Duration, error) {
		members := make([]heapsim.Allocator, len(kinds))
		for i, k := range kinds {
			var err error
			if members[i], err = core.NewAllocator(k); err != nil {
				return nil, 0, err
			}
		}
		pool, err := heapsim.NewPool("pool", members...)
		if err != nil {
			return nil, 0, err
		}
		pol, err := cluster.NewPolicy(policy)
		if err != nil {
			return nil, 0, err
		}
		tenants := make([]cluster.Tenant, len(arts))
		for i, a := range arts {
			srcs[i].Reset()
			tenants[i] = cluster.Tenant{ID: a.Model.Name, Source: srcs[i],
				Oracle: a.TrainPredictor.NewMapper(a.TestTrace.Table), Events: len(a.TestTrace.Events)}
		}
		t0 := time.Now()
		res, err := cluster.Run(cluster.Config{Pool: pool, Policy: pol, Admission: cluster.Reject, Budget: budget}, tenants)
		return res, time.Since(t0), err
	}
	perReplay := 0
	for _, a := range arts {
		perReplay += len(a.TestTrace.Events)
	}
	var busy time.Duration
	var rejected, clock int64
	scenarios := 0
	parent := l.b.rec.begin("layer:cluster.run", 0)
	for _, policy := range cluster.PolicyNames() {
		for _, spec := range clusterPools {
			kinds, err := cluster.ParsePoolSpec(spec)
			if err != nil {
				return err
			}
			id := l.b.rec.begin("scenario:"+policy+"/"+spec, parent)
			free, d1, err := replay(policy, kinds, 0)
			if err != nil {
				return fmt.Errorf("cluster %s/%s free: %w", policy, spec, err)
			}
			stressed, d2, err := replay(policy, kinds, max(free.PeakLive/2, 1))
			if err != nil {
				return fmt.Errorf("cluster %s/%s stressed: %w", policy, spec, err)
			}
			l.b.rec.end(id, int64(2*perReplay))
			busy += d1 + d2
			for _, t := range stressed.Tenants {
				rejected += t.RejectedBytes
			}
			clock += stressed.Clock
			scenarios++
		}
	}
	l.b.rec.end(parent, int64(2*perReplay*scenarios))
	l.perUnit("cluster.run_ns_per_event", "cluster.run_events", busy, 2*perReplay*scenarios)
	l.put("cluster.rejected_byte_pct", 100*float64(rejected)/float64(max(clock, 1)), "%")
	l.put("cluster.scenarios", float64(scenarios), "count")
	return nil
}
