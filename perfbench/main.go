// Command perfbench is the repository's benchmark. One process runs one
// workload in-process, through the same public entry points the
// experiment commands call, so that set-up time and the Go heap can be
// measured:
//
//	tables      Engine.Run over every table (lptables)
//	tournament  Engine.RunTournament behind its conformance gate (lptables -tournament)
//	cluster     the pool gate, then cluster.RunMatrix (lpcluster)
//	matrix      MatrixRunner.RunAll with heap-scanning collectors (lpbench -heapscan)
//
// Usage:
//
//	perfbench --workload NAME [--seed 1993] [--seconds 20] [--trace 0|1] [--spans FILE]
//
// Run it from the repository root; perfbench/run.sh builds it from the
// checkout and runs it there. Every workload runs at scale 0.02 on two
// workers with GOMAXPROCS 2; the seed becomes core.Config.SeedBase and the
// gates' seed.
//
// With --trace 0 the run repeats, until --seconds is spent, a set-up (the
// workload's artifact build), one timed call of its entry point, and a
// check of the call's output, and prints the medians of the end-to-end
// metrics. With --trace 1 it sets up once, alternates untraced and traced
// calls, prints the tracing overhead, then times every layer's public
// functions over the workload's own programs and prints the per-layer
// metrics. Spans stay in memory and are written to --spans at exit.
//
// The last line of standard output is one JSON object: correct,
// attempted and failed units, and the metrics with their units.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	// root is the repository root the goldens are read from.
	root  string
	spans string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd names the metrics a --trace 0 run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"}, {"cpu_s", "s"}, {"peak_heap_mb", "MiB"}, {"setup_s", "s"},
}

func main() {
	o := options{root: "."}
	flag.StringVar(&o.workload, "workload", "", "workload to run: tables, tournament, cluster or matrix")
	flag.Uint64Var(&o.seed, "seed", goldenSeed, "input seed (core.Config.SeedBase and the gates' seed)")
	flag.IntVar(&o.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&o.trace, "trace", 0, "1 for the traced run with per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "span file of the traced run (default .bench_build/perfbench-spans-WORKLOAD-seedN.json)")
	flag.Parse()
	if workloadByName(o.workload) == nil || o.seconds < 1 || (o.trace != 0 && o.trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload tables|tournament|cluster|matrix [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]")
		os.Exit(2)
	}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", fmt.Sprintf("perfbench-spans-%s-seed%d.json", o.workload, o.seed))
	}
	runtime.GOMAXPROCS(workers)
	res, err := run(os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(w io.Writer, o options) (*result, error) {
	wl := workloadByName(o.workload)
	exp, err := loadExpectation(o.root, wl, o.seed)
	if err != nil {
		return nil, err
	}
	if o.trace == 1 {
		return runTraced(w, o, wl, exp)
	}
	return runMeasured(w, o, wl, exp)
}

func printHeader(w io.Writer, o options, b *bench) {
	replayed := "varies by cell"
	if b.wl.replays > 0 {
		replayed = fmt.Sprint(b.events * b.wl.replays)
	}
	fmt.Fprintf(w, "perfbench %s: seed=%d scale=%g workers=%d GOMAXPROCS=%d nproc=%d %s trace=%d\n",
		b.wl.name, o.seed, scale, workers, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), o.trace)
	fmt.Fprintf(w, "perfbench %s: %d %s per call; %d Test events over %d programs; events replayed per call: %s\n",
		b.wl.name, b.wl.units, b.wl.unit, b.events, len(b.models), replayed)
}

// outcome checks one call: an error, a failed check or an output that
// differs from the run's first good one fails every unit of the call.
type outcome struct {
	exp    *expectation
	digest string
	failed int
	calls  int
}

func (c *outcome) record(b *bench, out []byte, failed int, err error) string {
	c.calls++
	sum := sha256.Sum256(out)
	digest := hex.EncodeToString(sum[:])
	switch {
	case err != nil:
		failed = b.wl.units
		digest = "error: " + err.Error()
	case failed > 0:
		digest = fmt.Sprintf("%d %s failed", failed, b.wl.unit)
	default:
		if cerr := c.exp.check(b, out); cerr != nil {
			failed = b.wl.units
			digest = "check failed: " + cerr.Error()
		} else if c.digest == "" {
			c.digest = digest
		} else if digest != c.digest {
			failed = b.wl.units
			digest = "output differs from the first call: sha256 " + digest
		}
	}
	c.failed += failed
	return digest
}

func (c *outcome) summarize(w io.Writer, wl *workload, seed uint64) {
	what := fmt.Sprintf("matches the golden's shape (%s)", wl.golden)
	switch {
	case wl.name == "matrix" && seed == goldenSeed:
		what = fmt.Sprintf("reproduces all %d committed metrics of %v", c.exp.baselineMetrics, matrixBaselines)
	case wl.name == "matrix":
		what = "replays every Test event in every job"
	case seed == goldenSeed:
		what = "equals " + wl.golden + " after its header"
	}
	fmt.Fprintf(w, "perfbench %s: output sha256 %s; %d calls; %s\n", wl.name, c.digest, c.calls, what)
	fmt.Fprintf(w, "perfbench %s: failed_frac=%g (%d of %d %s)\n", wl.name,
		float64(c.failed)/float64(c.calls*wl.units), c.failed, c.calls*wl.units, wl.unit)
}

// runMeasured repeats set-up, timed call and check while another
// iteration fits in the run's time, and reports each metric's median.
func runMeasured(w io.Writer, o options, wl *workload, exp *expectation) (*result, error) {
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	peak := startHeapPeak()
	oc := &outcome{exp: exp}
	series := map[string][]float64{}
	for i := 1; ; i++ {
		iterStart := time.Now()
		// Each iteration starts from a collected heap holding nothing of
		// the previous one.
		runtime.GC()
		peak.take()
		b := newBench(wl, o.seed)
		t0 := time.Now()
		if err := wl.setup(b); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup := time.Since(t0)
		if i == 1 {
			printHeader(w, o, b)
		}
		cpu0 := cpuTime()
		t1 := time.Now()
		out, failed, err := wl.call(b)
		wall := time.Since(t1)
		cpu := cpuTime() - cpu0
		heapMB := float64(peak.take()) / (1 << 20)
		status := oc.record(b, out, failed, err)
		series["setup_s"] = append(series["setup_s"], setup.Seconds())
		series["wall_s"] = append(series["wall_s"], wall.Seconds())
		series["cpu_s"] = append(series["cpu_s"], cpu.Seconds())
		series["peak_heap_mb"] = append(series["peak_heap_mb"], heapMB)
		fmt.Fprintf(w, "call %2d: setup_s=%.4f wall_s=%.4f cpu_s=%.4f peak_heap_mb=%.2f %s\n",
			i, setup.Seconds(), wall.Seconds(), cpu.Seconds(), heapMB, status)
		if time.Since(start)+time.Since(iterStart) > budget {
			break
		}
	}
	oc.summarize(w, wl, o.seed)
	res := &result{Correct: oc.failed == 0, Attempted: oc.calls * wl.units, Failed: oc.failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{median(series[m.name]), m.unit}
	}
	return res, nil
}

// runTraced sets up once, alternates untraced and traced calls for half
// the run's time (at least one pair), then runs the layer pass.
func runTraced(w io.Writer, o options, wl *workload, exp *expectation) (*result, error) {
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	rec := newRecorder(fmt.Sprintf("%s-seed%d", wl.name, o.seed))
	b := newBench(wl, o.seed)
	b.rec = rec
	b.parent = rec.begin("setup", 0)
	if err := wl.setup(b); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rec.end(b.parent, int64(len(b.models)))
	printHeader(w, o, b)

	oc := &outcome{exp: exp}
	var plain, traced, allocMB, gcCycles, gcCPU []float64
	for i := 1; i == 1 || time.Since(start) < budget/2; i++ {
		// Alternate which call of the pair goes first, so that neither
		// gains from the other warming up.
		for _, tracing := range []bool{i%2 == 0, i%2 == 1} {
			b.rec, b.parent = nil, 0
			if tracing {
				b.rec, b.parent = rec, rec.begin("call", 0)
			}
			rt0 := readRuntime()
			t0 := time.Now()
			out, failed, err := wl.call(b)
			wall := time.Since(t0).Seconds()
			rt := readRuntime().sub(rt0)
			if tracing {
				rec.end(b.parent, int64(wl.units))
			}
			status := oc.record(b, out, failed, err)
			if !tracing {
				plain = append(plain, wall)
				fmt.Fprintf(w, "untraced call %d: wall_s=%.4f %s\n", i, wall, status)
				continue
			}
			traced = append(traced, wall)
			allocMB = append(allocMB, float64(rt.allocBytes)/(1<<20))
			gcCycles = append(gcCycles, float64(rt.gcCycles))
			gcCPU = append(gcCPU, rt.gcCPU)
			fmt.Fprintf(w, "traced call %d: wall_s=%.4f %s\n", i, wall, status)
		}
	}
	oc.summarize(w, wl, o.seed)
	tp, tt := median(plain), median(traced)
	fmt.Fprintf(w, "perfbench %s: tracing overhead: traced wall_s %.4f - untraced wall_s %.4f = %+.4f s (%+.1f%%), medians of %d calls each\n",
		wl.name, tt, tp, tt-tp, 100*(tt-tp)/tp, len(plain))

	b.rec, b.parent = rec, 0
	m, err := layerPass(b)
	if err != nil {
		return nil, fmt.Errorf("layer pass: %w", err)
	}
	m["runtime.alloc_mb"] = metric{median(allocMB), "MiB"}
	m["runtime.gc_cycles"] = metric{median(gcCycles), "count"}
	m["runtime.gc_cpu_s"] = metric{median(gcCPU), "s"}
	if err := checkLayerMetrics(m); err != nil {
		return nil, err
	}
	for _, lm := range layerMetrics {
		v := m[lm.name]
		note := ""
		if lm.moves != "" {
			note = "  -> " + lm.moves + " on " + lm.on
		}
		fmt.Fprintf(w, "%-36s %14.4f %-5s%s\n", lm.name, v.Value, v.Unit, note)
	}
	if err := rec.write(o.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(w, "perfbench %s: wrote %d spans to %s\n", wl.name, len(rec.spans), o.spans)
	return &result{Correct: oc.failed == 0, Attempted: oc.calls * wl.units, Failed: oc.failed, Metrics: m}, nil
}

// checkLayerMetrics verifies the layer pass produced exactly the listed
// per-layer metrics, each with its listed unit.
func checkLayerMetrics(m map[string]metric) error {
	if len(m) != len(layerMetrics) {
		return fmt.Errorf("layer pass produced %d metrics, want %d", len(m), len(layerMetrics))
	}
	for _, lm := range layerMetrics {
		if v, ok := m[lm.name]; !ok || v.Unit != lm.unit {
			return fmt.Errorf("layer metric %s: got %+v, want unit %s", lm.name, v, lm.unit)
		}
	}
	return nil
}
