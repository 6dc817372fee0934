// Benchmarks regenerating every table of the paper (Tables 2-9; the paper
// has no numbered figures) plus ablations over the design parameters
// DESIGN.md calls out. Each table benchmark reports its headline measured
// values as custom metrics so `go test -bench=.` doubles as a compact
// reproduction report; cmd/lptables prints the full paper-vs-measured
// tables.
package lifetime_test

import (
	"fmt"
	"sync"
	"testing"

	lifetime "repro"
	"repro/internal/core"
	"repro/internal/heapsim"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

// benchScale keeps the full suite fast; percentages are essentially
// scale-invariant (see EXPERIMENTS.md for full-scale runs).
const benchScale = 0.02

// benchEngine shares one core.Engine across all benchmarks, so artifact
// builds are cached (and table-warmed) exactly as cmd/lptables caches
// them, and the engine-level benchmarks reuse the same instance.
var (
	engOnce sync.Once
	eng     *core.Engine
)

func benchEngine() *core.Engine {
	engOnce.Do(func() {
		eng = core.NewEngine(core.DefaultConfig(benchScale))
	})
	return eng
}

func artifacts(b *testing.B, name string) *core.Artifacts {
	b.Helper()
	a, err := benchEngine().Artifacts(name)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

func perModel(b *testing.B, f func(b *testing.B, a *core.Artifacts)) {
	for _, name := range core.ProgramOrder {
		name := name
		b.Run(name, func(b *testing.B) {
			a := artifacts(b, name)
			f(b, a)
		})
	}
}

func BenchmarkTable2Stats(b *testing.B) {
	cfg := core.DefaultConfig(benchScale)
	perModel(b, func(b *testing.B, a *core.Artifacts) {
		var row core.Table2Row
		var err error
		for i := 0; i < b.N; i++ {
			row, err = cfg.Table2(a)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(row.HeapRefPct, "heapref%")
		b.ReportMetric(float64(row.MaxBytes)/1024, "maxliveKB")
	})
}

func BenchmarkTable3Quantiles(b *testing.B) {
	cfg := core.DefaultConfig(benchScale)
	perModel(b, func(b *testing.B, a *core.Artifacts) {
		var row core.Table3Row
		for i := 0; i < b.N; i++ {
			row = cfg.Table3(a)
		}
		b.ReportMetric(row.Quartiles[2], "median_bytes")
	})
}

func BenchmarkTable4Prediction(b *testing.B) {
	cfg := core.DefaultConfig(benchScale)
	perModel(b, func(b *testing.B, a *core.Artifacts) {
		var row core.Table4Row
		for i := 0; i < b.N; i++ {
			row = cfg.Table4(a)
		}
		b.ReportMetric(row.SelfPredPct, "self%")
		b.ReportMetric(row.TruePredPct, "true%")
		b.ReportMetric(row.TrueErrorPct, "err%")
	})
}

func BenchmarkTable5SizeOnly(b *testing.B) {
	cfg := core.DefaultConfig(benchScale)
	perModel(b, func(b *testing.B, a *core.Artifacts) {
		var row core.Table5Row
		for i := 0; i < b.N; i++ {
			row = cfg.Table5(a)
		}
		b.ReportMetric(row.PredPct, "sizeonly%")
	})
}

func BenchmarkTable6ChainLength(b *testing.B) {
	cfg := core.DefaultConfig(benchScale)
	perModel(b, func(b *testing.B, a *core.Artifacts) {
		var row core.Table6Row
		for i := 0; i < b.N; i++ {
			row = cfg.Table6(a)
		}
		b.ReportMetric(row.PredPct[0], "len1%")
		b.ReportMetric(row.PredPct[3], "len4%")
		b.ReportMetric(row.PredPct[7], "complete%")
	})
}

func BenchmarkTable7ArenaFractions(b *testing.B) {
	cfg := core.DefaultConfig(benchScale)
	perModel(b, func(b *testing.B, a *core.Artifacts) {
		var row core.Table7Row
		var err error
		for i := 0; i < b.N; i++ {
			row, err = cfg.Table7(a)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(row.ArenaAllocPct, "arena_allocs%")
		b.ReportMetric(row.ArenaBytePct, "arena_bytes%")
	})
}

func BenchmarkTable8HeapSize(b *testing.B) {
	cfg := core.DefaultConfig(benchScale)
	perModel(b, func(b *testing.B, a *core.Artifacts) {
		var row core.Table8Row
		var err error
		for i := 0; i < b.N; i++ {
			row, err = cfg.Table8(a)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(row.FirstFitKB), "firstfitKB")
		b.ReportMetric(row.TrueRatioPct, "arena/ff%")
	})
}

func BenchmarkTable9CPUCost(b *testing.B) {
	cfg := core.DefaultConfig(benchScale)
	perModel(b, func(b *testing.B, a *core.Artifacts) {
		var row core.Table9Row
		var err error
		for i := 0; i < b.N; i++ {
			row, err = cfg.Table9(a)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(row.FirstFit.Total(), "ff_a+f")
		b.ReportMetric(row.Len4.Total(), "len4_a+f")
		b.ReportMetric(row.CCE.Total(), "cce_a+f")
	})
}

func BenchmarkLocalityExtension(b *testing.B) {
	cfg := core.DefaultConfig(benchScale)
	perModel(b, func(b *testing.B, a *core.Artifacts) {
		var row core.LocalityRow
		var err error
		for i := 0; i < b.N; i++ {
			row, err = cfg.Locality(a)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(row.FirstFitMissPct, "ff_miss%")
		b.ReportMetric(row.ArenaMissPct, "arena_miss%")
	})
}

// --- Ablations (design choices called out in DESIGN.md §5) ---

// BenchmarkAblationThreshold sweeps the "how short is short-lived?"
// parameter (paper §4.1 fixes 32KB after discussing the trade-off).
func BenchmarkAblationThreshold(b *testing.B) {
	for _, kb := range []int64{8, 16, 32, 64, 128} {
		kb := kb
		b.Run(fmt.Sprintf("ghost/%dKB", kb), func(b *testing.B) {
			a := artifacts(b, "ghost")
			cfg := profile.DefaultConfig()
			cfg.ShortThreshold = kb << 10
			var ev profile.Eval
			for i := 0; i < b.N; i++ {
				db := profile.TrainObjects(a.TrainTrace.Table, a.TrainObjs, cfg)
				ev = profile.EvaluateObjects(a.TrainTrace.Table, a.TrainObjs, db.Predictor())
			}
			b.ReportMetric(ev.PredictedShortPct(), "pred%")
		})
	}
}

// BenchmarkAblationAdmitFraction relaxes the all-short admission rule
// (paper §4.1: "how large should this percentage be?").
func BenchmarkAblationAdmitFraction(b *testing.B) {
	for _, frac := range []float64{1.0, 0.99, 0.95, 0.9} {
		frac := frac
		b.Run(fmt.Sprintf("espresso/admit=%.2f", frac), func(b *testing.B) {
			a := artifacts(b, "espresso")
			cfg := profile.DefaultConfig()
			cfg.AdmitFraction = frac
			var self, tru profile.Eval
			for i := 0; i < b.N; i++ {
				db := profile.TrainObjects(a.TrainTrace.Table, a.TrainObjs, cfg)
				p := db.Predictor()
				self = profile.EvaluateObjects(a.TrainTrace.Table, a.TrainObjs, p)
				tru = profile.EvaluateObjects(a.TestTrace.Table, a.TestObjs, p)
			}
			b.ReportMetric(self.PredictedShortPct(), "self%")
			b.ReportMetric(tru.ErrorPct(), "true_err%")
		})
	}
}

// BenchmarkAblationArenaGeometry sweeps arena count x size at a fixed
// 64KB total (the paper motivates 16x4KB blocking against pollution).
func BenchmarkAblationArenaGeometry(b *testing.B) {
	for _, g := range []struct{ n, sizeKB int }{
		{1, 64}, {4, 16}, {16, 4}, {64, 1},
	} {
		g := g
		b.Run(fmt.Sprintf("cfrac/%dx%dKB", g.n, g.sizeKB), func(b *testing.B) {
			a := artifacts(b, "cfrac")
			var res core.SimResult
			var err error
			for i := 0; i < b.N; i++ {
				ar := heapsim.NewArenaGeometry(g.n, int64(g.sizeKB)<<10)
				res, err = core.RunSim(a.TestTrace, ar, a.TrainPredictor)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.ArenaAllocPct, "arena_allocs%")
			b.ReportMetric(float64(res.PinnedArenas), "pinned")
		})
	}
}

// BenchmarkAblationRoverPolicy compares the A4' roving pointer against the
// K&R rover-on-free variant (see EXPERIMENTS.md for the trade-off).
func BenchmarkAblationRoverPolicy(b *testing.B) {
	for _, kr := range []bool{false, true} {
		kr := kr
		name := "ghost/a4prime"
		if kr {
			name = "ghost/rover-on-free"
		}
		b.Run(name, func(b *testing.B) {
			a := artifacts(b, "ghost")
			var res core.SimResult
			var err error
			for i := 0; i < b.N; i++ {
				ff := heapsim.NewFirstFit()
				ff.RoverOnFree = kr
				res, err = core.RunSim(a.TestTrace, ff, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.MaxHeap)/1024, "heapKB")
			b.ReportMetric(float64(res.Counts.FFProbes)/float64(res.Counts.FFAllocs), "probes/alloc")
		})
	}
}

// BenchmarkRunSim measures the replay loop itself with no collector
// attached — the baseline the observability layer must not regress (the
// nil path is one predictable branch per event).
func BenchmarkRunSim(b *testing.B) {
	a := artifacts(b, "gawk")
	b.Run("gawk/arena", func(b *testing.B) {
		var res core.SimResult
		var err error
		for i := 0; i < b.N; i++ {
			res, err = core.RunSim(a.TestTrace, heapsim.NewArena(), a.TrainPredictor)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(res.TotalBytes)
		b.ReportMetric(float64(b.N)*float64(len(a.TestTrace.Events))/b.Elapsed().Seconds()/1e6, "Mevents/s")
	})
	b.Run("gawk/firstfit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunSim(a.TestTrace, heapsim.NewFirstFit(), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRunSimObserved is the same replay with a collector attached:
// the tracker's prediction scoring, the allocator's metrics and the
// timeline. Like BenchmarkRunSimStreaming it reports events/op, and CI
// gates its allocs/op and ns/event against BENCH_streaming.txt.
func BenchmarkRunSimObserved(b *testing.B) {
	a := artifacts(b, "gawk")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := lifetime.NewObsCollector(lifetime.ObsOptions{Label: "gawk/arena"})
		if _, err := core.RunSim(a.TestTrace, heapsim.NewArena(), a.TrainPredictor, col); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(a.TestTrace.Events)), "events/op")
}

// BenchmarkRunSimStreaming measures the block-path replay engine:
// core.RunSimSource fed by a pre-transposed columnar view of the test
// trace, the cheapest producer the batched Source API admits (NextBlock
// repoints the block at the next column window; nothing is copied or
// decoded per event). Generation and training happen once, outside the
// timed region, so ns/op prices the replay alone — divide by the
// reported events/op for ns/event, which is what CI gates. Arena and
// sitearena replay with the trained predictor's hints (sitearena routed
// per site through the predictor's Mapper) and custom with its 16 top
// training sizes as hot sizes, as in the experiments; the rest take no
// hints.
//
// With -benchmem the other gated column is allocs/op: the replay's
// allocation count is bounded by the live-object set (block free lists,
// the allocators' page and slab pools), not the event count, so it
// stays essentially flat across the 10x event spread between the 1x and
// 10x sub-benchmarks.
func BenchmarkRunSimStreaming(b *testing.B) {
	m := synth.ByName("gawk")
	// Train once, outside the measured loop.
	trainSrc, err := m.Source(synth.Config{Input: synth.Train, Seed: 1, Scale: 0.002})
	if err != nil {
		b.Fatal(err)
	}
	db, err := profile.TrainSource(trainSrc, profile.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	pred, hot := db.Predictor(), db.TopSizes(16)
	for _, sc := range []struct {
		name  string
		scale float64
	}{{"1x", 0.002}, {"10x", 0.02}} {
		cfg := synth.Config{Input: synth.Test, Seed: 1, Scale: sc.scale}
		for _, alloc := range []string{"arena", "firstfit", "bsd", "segfit", "custom", "sitearena"} {
			alloc := alloc
			b.Run("gawk/"+alloc+"/"+sc.name, func(b *testing.B) {
				tr, err := m.Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cols := trace.NewTraceColumns(tr)
				nEvents := len(tr.Events)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cols.Reset()
					a, err := heapsim.New(alloc, hot)
					if err != nil {
						b.Fatal(err)
					}
					var p *profile.Predictor
					if alloc == "arena" || alloc == "sitearena" {
						p = pred
					}
					if _, err := core.RunSimSource(cols, a, p); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(nEvents), "events/op")
				b.ReportMetric(float64(b.N)*float64(nEvents)/b.Elapsed().Seconds()/1e6, "Mevents/s")
			})
		}
	}
}

// BenchmarkGenerate measures raw trace-generation throughput.
func BenchmarkGenerate(b *testing.B) {
	m := lifetime.ModelByName("cfrac")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := lifetime.GenerateTrace(m, lifetime.TrainInput, uint64(i), 0.01)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tr.Events)))
	}
}

// BenchmarkPredictorLookup measures the per-allocation prediction cost of
// the mapped predictor (the operation the paper prices at 18 instructions).
func BenchmarkPredictorLookup(b *testing.B) {
	a := artifacts(b, "gawk")
	m := a.TrainPredictor.NewMapper(a.TestTrace.Table)
	events := a.TestTrace.Events
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := events[i%len(events)]
		if ev.Kind == 1 {
			m.PredictShort(ev.Chain, ev.Size)
		}
	}
}

// BenchmarkExtensionGCPretenuring quantifies the paper's related-work
// claim: a generational collector with lifetime-prediction pretenuring
// copies less than the plain collector.
func BenchmarkExtensionGCPretenuring(b *testing.B) {
	for _, pre := range []bool{false, true} {
		pre := pre
		name := "gawk/baseline"
		if pre {
			name = "gawk/pretenured"
		}
		b.Run(name, func(b *testing.B) {
			a := artifacts(b, "gawk")
			var pred *profile.Predictor
			if pre {
				pred = a.TrainPredictor
			}
			var st lifetime.GCStats
			var err error
			for i := 0; i < b.N; i++ {
				st, err = lifetime.SimulateGC(a.TestTrace, lifetime.DefaultGCConfig(), pred)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.CopiedBytes())/1024, "copiedKB")
			b.ReportMetric(float64(st.MinorGCs), "minorGCs")
		})
	}
}

// BenchmarkEngineRun measures the DAG scheduler end to end over the
// cheap analysis tables (artifacts come pre-built from the shared
// engine, so the measured work is cell execution plus scheduling). The
// overlap metric is CPUTime/Wall — the achieved parallelism; on a
// multi-core machine it should approach the worker count.
func BenchmarkEngineRun(b *testing.B) {
	e := benchEngine()
	// Warm the artifact cache outside the timed region.
	for _, name := range core.ProgramOrder {
		artifacts(b, name)
	}
	tables := map[string]bool{"3": true, "4": true, "5": true, "6": true}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var res *core.RunResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = e.Run(core.Spec{Tables: tables, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.CPUTime().Seconds()/res.Wall.Seconds(), "overlap")
		})
	}
}

// BenchmarkExtensionCustomAlloc contrasts the CUSTOMALLOC-style
// profile-synthesized per-size allocator with the lifetime-predicting
// arena allocator (see core.CustomAllocComparison's doc for the finding).
func BenchmarkExtensionCustomAlloc(b *testing.B) {
	cfg := core.DefaultConfig(benchScale)
	perModel(b, func(b *testing.B, a *core.Artifacts) {
		var row core.CustomRow
		var err error
		for i := 0; i < b.N; i++ {
			row, err = cfg.CustomAllocComparison(a)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(row.CustomFastPct, "fastpath%")
		b.ReportMetric(float64(row.CustomHeapKB), "customKB")
		b.ReportMetric(float64(row.ArenaHeapKB), "arenaKB")
	})
}
