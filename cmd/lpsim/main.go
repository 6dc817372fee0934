// Command lpsim replays an allocation trace through one of the allocator
// simulators — first-fit (Knuth), best-fit, BSD, or the lifetime-predicting
// arena allocator — and reports heap size, arena occupancy, and modeled
// instruction costs. Giving a site database (-sites, from lpprof) enables
// lifetime prediction; training and trace may come from different inputs,
// which is the paper's true prediction. With -obs the run is observed:
// counters, search-length histograms, a live/heap timeline, and structured
// replay events are exported as JSON for cmd/lpstats.
//
// Usage:
//
//	lpgen -program gawk -input train -o train.trc
//	lpgen -program gawk -input test  -o test.trc
//	lpprof -trace train.trc -o sites.json
//	lpsim -trace test.trc -alloc arena -sites sites.json
//	lpsim -trace test.trc -alloc arena -sites sites.json -obs metrics.json
//	lpstats -metrics metrics.json
//
// The trace streams through the replay, so it can also arrive on stdin
// with no intermediate file, at constant memory:
//
//	lpgen -program gawk -input test -o - | lpsim -trace - -alloc arena
package main

import (
	"fmt"
	"io"
	"math"
	"os"

	"flag"

	lifetime "repro"
	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/profile"
)

const name = "lpsim"

func main() {
	tracePath := flag.String("trace", "", "input trace file (binary format; - for stdin)")
	allocName := flag.String("alloc", "arena", "allocator: arena, firstfit, bestfit, bsd")
	sitesPath := flag.String("sites", "", "site database JSON (from lpprof); enables prediction")
	callsPerAlloc := flag.Float64("calls-per-alloc", 0, "function calls per allocation for the CCE cost column (0 = use the trace's metadata)")
	obsPath := flag.String("obs", "", "observe the run and write the metrics snapshot JSON here (- for stdout)")
	obsInterval := flag.Int64("obs-interval", 0, "timeline sampling cadence in bytes allocated (0 = default 64KB)")
	heapScan := flag.Bool("heapscan", false, "with -obs: walk the allocator's span layout at every timeline sample, decomposing fragmentation (heap.* families) and recording an address-space heatmap")
	heatmapBins := flag.Int("heatmap-bins", 0, fmt.Sprintf("address-space heatmap column count, 0 to %d (0 = default %d); needs -heapscan",
		obs.MaxHeatmapBins, obs.DefaultHeatmapBins))
	startProfiles := cliutil.ProfileFlags(name)
	cliutil.Parse(name,
		"replay an allocation trace through an allocator simulator",
		"lpsim -trace test.trc -alloc arena -sites sites.json [-obs metrics.json]",
		"lpsim -trace test.trc -alloc firstfit -obs metrics.json -heapscan",
		"lpsim -trace test.trc -alloc arena -cpuprofile cpu.pprof")
	defer startProfiles()()

	if *tracePath == "" {
		cliutil.UsageError(name, "missing -trace")
	}
	// NaN fails every comparison, so !(x >= 0) refuses it too.
	if cpa := *callsPerAlloc; !(cpa >= 0) || math.IsInf(cpa, 1) {
		cliutil.UsageError(name, "-calls-per-alloc %v: want a finite number >= 0", cpa)
	}
	if *heatmapBins < 0 || *heatmapBins > obs.MaxHeatmapBins {
		cliutil.UsageError(name, "-heatmap-bins %d: want 0 to %d", *heatmapBins, obs.MaxHeatmapBins)
	}
	// The trace streams through the replay: events decode one at a time
	// (from a file or a pipe), so `lpgen ... -o - | lpsim -trace -` runs
	// at constant memory regardless of trace length.
	var r io.Reader = os.Stdin
	if *tracePath != "-" {
		f, err := os.Open(*tracePath)
		if err != nil {
			cliutil.Fatal(name, err)
		}
		defer f.Close()
		r = f
	}
	src, err := lifetime.NewTraceReader(r)
	if err != nil {
		cliutil.Fatal(name, err)
	}

	var pred *lifetime.Predictor
	if *sitesPath != "" {
		sf, err := os.Open(*sitesPath)
		if err != nil {
			cliutil.Fatal(name, err)
		}
		pred, err = profile.ReadPredictor(sf)
		sf.Close()
		if err != nil {
			cliutil.Fatal(name, err)
		}
	}

	var alloc lifetime.Allocator
	switch *allocName {
	case "arena":
		alloc = lifetime.NewArenaAllocator()
	case "firstfit":
		alloc = lifetime.NewFirstFitAllocator()
	case "bestfit":
		alloc = lifetime.NewBestFitAllocator()
	case "bsd":
		alloc = lifetime.NewBSDAllocator()
	default:
		cliutil.UsageError(name, "unknown allocator %q (want arena, firstfit, bestfit, bsd)", *allocName)
	}

	var col *lifetime.ObsCollector
	if *obsPath != "" {
		// The program name comes from the stream header, available
		// before the first event.
		col = lifetime.NewObsCollector(lifetime.ObsOptions{
			Label:            src.Meta().Program + "/" + *allocName,
			TimelineInterval: *obsInterval,
			HeapScan:         *heapScan,
			HeatmapBins:      *heatmapBins,
		})
	}

	res, err := lifetime.SimulateSource(src, alloc, pred, col)
	if err != nil {
		cliutil.Fatal(name, err)
	}
	meta := src.Meta() // trailer totals are final after the replay

	// With -obs -, stdout carries the JSON snapshot; the human-readable
	// summary moves to stderr so the stream stays pipeable into lpstats.
	out := io.Writer(os.Stdout)
	if *obsPath == "-" {
		out = os.Stderr
	}
	fmt.Fprintf(out, "program:        %s (%s input)\n", meta.Program, meta.Input)
	fmt.Fprintf(out, "allocator:      %s\n", *allocName)
	fmt.Fprintf(out, "allocations:    %d (%d bytes)\n", res.TotalAllocs, res.TotalBytes)
	fmt.Fprintf(out, "max heap:       %d bytes (%d KB)\n", res.MaxHeap, res.MaxHeap>>10)
	if *allocName == "arena" {
		fmt.Fprintf(out, "arena allocs:   %.1f%%\n", res.ArenaAllocPct)
		fmt.Fprintf(out, "arena bytes:    %.1f%%\n", res.ArenaBytePct)
		fmt.Fprintf(out, "pinned arenas:  %d\n", res.PinnedArenas)
		fmt.Fprintf(out, "fallbacks:      %d\n", res.Counts.ArenaFallbacks)
	}

	var cost lifetime.PerOpCost
	switch *allocName {
	case "bsd":
		cost = lifetime.CostBSD(res.Counts)
	case "firstfit", "bestfit":
		cost = lifetime.CostFirstFit(res.Counts)
	case "arena":
		cost = lifetime.CostArenaLen4(res.Counts)
		cpa := *callsPerAlloc
		if cpa == 0 && res.TotalAllocs > 0 {
			cpa = float64(meta.FunctionCalls) / float64(res.TotalAllocs)
		}
		cce := lifetime.CostArenaCCE(res.Counts, cpa)
		fmt.Fprintf(out, "instr/op (cce): alloc %.1f, free %.1f, a+f %.1f\n",
			cce.Alloc, cce.Free, cce.Total())
	}
	fmt.Fprintf(out, "instr/op:       alloc %.1f, free %.1f, a+f %.1f\n",
		cost.Alloc, cost.Free, cost.Total())

	if *obsPath != "" {
		if err := writeObs(*obsPath, res.Obs); err != nil {
			cliutil.Fatal(name, err)
		}
		if *obsPath != "-" {
			fmt.Printf("metrics:        %s (render with lpstats -metrics %s)\n", *obsPath, *obsPath)
		}
	}
}

func writeObs(path string, snap *obs.Snapshot) error {
	if snap == nil {
		return fmt.Errorf("no observability snapshot was produced")
	}
	if path == "-" {
		return obs.WriteJSON(os.Stdout, snap)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteJSON(f, snap); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
