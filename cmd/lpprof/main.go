// Command lpprof trains a lifetime predictor from an allocation trace and
// writes the site database as JSON — the paper's training step: each
// allocation site (call-chain x rounded size) gets lifetime statistics and
// a P² quantile histogram, and sites whose objects were all short-lived
// are marked as predictors.
//
// Usage:
//
//	lpgen -program gawk -input train -o gawk.trc
//	lpprof -trace gawk.trc -o gawk-sites.json
//	lpprof -trace gawk.trc -threshold 16384 -chain-length 4 -o sites.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	lifetime "repro"
	"repro/internal/cliutil"
)

const name = "lpprof"

func main() {
	tracePath := flag.String("trace", "", "input trace file (binary format; - for stdin)")
	out := flag.String("o", "-", "output JSON file, - for stdout")
	threshold := flag.Int64("threshold", 32<<10, "short-lived threshold in bytes (> 0)")
	rounding := flag.Int64("rounding", 4, "size rounding for site keys (>= 1; 1 = none)")
	chainLength := flag.Int("chain-length", 0, "sub-chain length (0 = complete chain with recursion elimination)")
	sizeOnly := flag.Bool("size-only", false, "key sites by size alone (Table 5 predictor)")
	admit := flag.Float64("admit", 1.0, "fraction of a site's objects that must be short-lived, in (0, 1]")
	cliutil.Parse(name,
		"train a lifetime predictor from an allocation trace",
		"lpprof -trace gawk.trc -o gawk-sites.json")

	if *tracePath == "" {
		cliutil.UsageError(name, "missing -trace")
	}
	switch {
	case !(*admit > 0 && *admit <= 1):
		cliutil.UsageError(name, "-admit %v is outside (0, 1]", *admit)
	case *threshold <= 0:
		cliutil.UsageError(name, "-threshold %d is not positive", *threshold)
	case *rounding < 1:
		cliutil.UsageError(name, "-rounding %d is below 1", *rounding)
	case *chainLength < 0:
		cliutil.UsageError(name, "-chain-length %d is negative", *chainLength)
	}
	var r io.Reader = os.Stdin
	if *tracePath != "-" {
		f, err := os.Open(*tracePath)
		if err != nil {
			cliutil.Fatal(name, err)
		}
		defer f.Close()
		r = f
	}
	// Training streams: events decode one at a time (file or pipe) and
	// fold into per-site statistics over a live-object map, so
	// `lpgen ... -o - | lpprof -trace -` runs at constant memory.
	src, err := lifetime.NewTraceReader(r)
	if err != nil {
		cliutil.Fatal(name, err)
	}
	program := src.Meta().Program

	cfg := lifetime.DefaultProfileConfig()
	cfg.ShortThreshold = *threshold
	cfg.SizeRounding = *rounding
	cfg.ChainLength = *chainLength
	cfg.SizeOnly = *sizeOnly
	cfg.AdmitFraction = *admit

	db, err := lifetime.TrainDBSource(src, cfg)
	if err != nil {
		cliutil.Fatal(name, err)
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			cliutil.Fatal(name, err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				cliutil.Fatal(name, err)
			}
		}()
		w = f
	}
	if err := db.WriteJSON(w, program); err != nil {
		cliutil.Fatal(name, err)
	}
	p := db.Predictor()
	fmt.Fprintf(os.Stderr, "lpprof: %s: %d sites, %d admitted as short-lived predictors\n",
		program, db.NumSites(), p.NumSites())
}
