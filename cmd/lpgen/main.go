// Command lpgen generates a synthetic allocation trace from one of the
// five calibrated program models and writes it to a file (or stdout) in
// the binary or text trace format.
//
// Usage:
//
//	lpgen -program gawk -input train -scale 0.1 -seed 1 -o gawk-train.trc
//	lpgen -program perl -input test -text -o -        # text to stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	lifetime "repro"
	"repro/internal/cliutil"
	"repro/internal/trace"
)

const name = "lpgen"

func main() {
	program := flag.String("program", "gawk", "model: cfrac, espresso, gawk, ghost, perl")
	input := flag.String("input", "train", "workload input: train or test")
	scale := flag.Float64("scale", 0.1, "trace scale relative to the paper's run")
	seed := flag.Uint64("seed", 1, "RNG seed")
	out := flag.String("o", "-", "output file, - for stdout")
	text := flag.Bool("text", false, "write the human-readable text format")
	cliutil.Parse(name,
		"generate a synthetic allocation trace from a calibrated program model",
		"lpgen -program gawk -input train -scale 0.1 -seed 1 -o gawk-train.trc")

	m := lifetime.ModelByName(*program)
	if m == nil {
		cliutil.UsageError(name, "unknown program %q (want one of cfrac, espresso, gawk, ghost, perl)", *program)
	}
	var in lifetime.WorkloadInput
	switch *input {
	case "train":
		in = lifetime.TrainInput
	case "test":
		in = lifetime.TestInput
	default:
		cliutil.UsageError(name, "unknown input %q (want train or test)", *input)
	}

	// Generation, serialization, and the summary statistics all stream:
	// each event goes straight from the model to the output writer and
	// into the running statistics, so memory stays bounded by the live
	// object set no matter the scale.
	src, err := lifetime.GenerateSource(m, in, *seed, *scale)
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
	type eventWriter interface {
		Write(trace.Event) error
		Close(funcCalls, nonHeapRefs int64) error
	}
	var ew eventWriter
	if *text {
		ew, err = trace.NewTextWriter(w, src.Meta(), src.Table())
	} else {
		ew, err = lifetime.NewTraceStreamWriter(w, src.Meta(), src.Table())
	}
	if err != nil {
		cliutil.Fatal(name, err)
	}

	acc := trace.NewStatsAccum()
	blk := trace.NewEventBlock(trace.DefaultBlockLen)
	for {
		err := src.NextBlock(blk)
		if err == io.EOF {
			break
		}
		if err != nil {
			cliutil.Fatal(name, err)
		}
		for k := 0; k < blk.N; k++ {
			ev := blk.Event(k)
			if err := ew.Write(ev); err != nil {
				cliutil.Fatal(name, err)
			}
			if err := acc.Add(ev); err != nil {
				cliutil.Fatal(name, err)
			}
		}
	}
	meta := src.Meta() // trailer totals are final after io.EOF
	if err := ew.Close(meta.FunctionCalls, meta.NonHeapRefs); err != nil {
		cliutil.Fatal(name, err)
	}
	st := acc.Finish(meta.NonHeapRefs)
	fmt.Fprintf(os.Stderr, "lpgen: %s/%s: %d events, %d objects, %d bytes, max live %d bytes\n",
		*program, *input, acc.Events(), st.TotalObjects, st.TotalBytes, st.MaxBytes)
}
