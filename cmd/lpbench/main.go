// Command lpbench runs the model × allocator × predictor simulation
// matrix with observability collectors attached and writes one
// deterministic bench JSON file: per-cell operation counts, byte-clock
// totals, search-length means, fragmentation peaks, and the full
// flattened metric set. Everything derives from seeded replays on the
// bytes-allocated clock, so the same code at the same scale produces the
// same bytes on any machine — commit the output (BENCH_<label>.json) and
// gate later changes with cmd/lpdiff.
//
// Usage:
//
//	lpbench -label seed -o BENCH_seed.json
//	lpbench -matrix gawk,cfrac/arena,firstfit -scale 0.05 -o -
//	lpbench -o new.json && lpdiff -threshold sim_bytes_per_op+10% BENCH_seed.json new.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/obs"
)

const name = "lpbench"

func main() {
	matrixSpec := flag.String("matrix", "all", "matrix spec: models/allocators/predictors, comma lists or all")
	label := flag.String("label", "run", "label embedded in the bench file (BENCH_<label>.json by convention)")
	scale := flag.Float64("scale", 0.02, "trace scale relative to the paper's runs")
	seed := flag.Uint64("seed", 1993, "base RNG seed for trace generation")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation workers")
	out := flag.String("o", "-", "output bench JSON file, - for stdout")
	only := flag.String("only", "", "keep only metrics whose name starts with this prefix (e.g. pred.)")
	heapScan := flag.Bool("heapscan", false, "walk each allocator's span layout at every timeline sample, adding the deterministic heap.* fragmentation families")
	startProfiles := cliutil.ProfileFlags(name)
	cliutil.Parse(name,
		"run the simulation matrix and emit a deterministic bench JSON file",
		"lpbench -label seed -o BENCH_seed.json",
		"lpbench -heapscan -only heap. -label frag-seed -o FRAG_seed.json",
		"lpbench -o new.json && lpdiff -threshold sim_bytes_per_op+10% BENCH_seed.json new.json",
		"lpbench -matrix gawk/arena -cpuprofile cpu.pprof -memprofile mem.pprof -o -")
	defer startProfiles()()

	jobs, err := core.ParseMatrix(*matrixSpec)
	if err != nil {
		cliutil.UsageError(name, "%v", err)
	}
	if *workers < 1 {
		cliutil.UsageError(name, "-workers must be at least 1 (got %d)", *workers)
	}
	core.SortJobs(jobs)

	cfg := core.DefaultConfig(*scale)
	cfg.SeedBase = *seed
	runner := core.NewMatrixRunner(cfg)
	results := runner.RunAll(jobs, *workers, func(j core.MatrixJob) *obs.Collector {
		return obs.NewCollector(obs.Options{Label: j.String(), HeapScan: *heapScan})
	})

	file := &core.BenchFile{Label: *label, Scale: *scale, SeedBase: *seed}
	for _, res := range results {
		if res.Err != nil {
			cliutil.Fatal(name, fmt.Errorf("job %s: %w", res.Job, res.Err))
		}
		run := core.NewBenchRun(res.Job, res.Res)
		if *only != "" {
			// A filtered file (e.g. just the pred. accuracy families) keeps
			// exact-match gates focused and the committed baseline small.
			for k := range run.Metrics {
				if !strings.HasPrefix(k, *only) {
					delete(run.Metrics, k)
				}
			}
		}
		file.Runs = append(file.Runs, run)
		fmt.Fprintf(os.Stderr, "%s: %-28s ops=%-9d bytes=%-11d heap=%d\n",
			name, res.Job, res.Res.Counts.Allocs+res.Res.Counts.Frees,
			res.Res.TotalBytes, res.Res.MaxHeap)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			cliutil.Fatal(name, err)
		}
		defer f.Close()
		w = f
	}
	if err := core.WriteBench(w, file); err != nil {
		cliutil.Fatal(name, err)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "%s: wrote %d runs to %s\n", name, len(file.Runs), *out)
	}
}
