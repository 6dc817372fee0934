// Command lpcheck runs the allocator conformance harness: heap-invariant
// audits, differential replay of every allocator against a shared ledger,
// and seeded property-based testing with shrinking repros.
//
// Three modes, combinable in one invocation:
//
//	lpcheck -models all -allocs all -stride 1     # audit the synth models
//	lpcheck -cases 1000 -seed 1993                # seeded property run
//	lpcheck -repro fail.trc                       # replay a shrunk repro
//
// Exit status is 0 when every check passes, 1 on a conformance violation
// (with a replayable shrunk repro on stdout), 2 on usage errors.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/check"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/heapsim"
	"repro/internal/synth"
	"repro/internal/trace"
)

const name = "lpcheck"

func main() {
	models := flag.String("models", "",
		fmt.Sprintf("synth models to audit: all, or comma list (valid: %s); empty skips",
			strings.Join(core.ProgramOrder, ",")))
	allocs := flag.String("allocs", "all",
		fmt.Sprintf("allocators to check: all, or comma list (valid: %s)",
			strings.Join(check.AllocatorNames(), ",")))
	scale := flag.Float64("scale", 0.005, "model trace scale for -models audits (stride-1 audits are quadratic in trace length)")
	cases := flag.Int("cases", 0, "property-based cases to run (0 = only if no other mode selected, then 100)")
	seed := flag.Uint64("seed", 1993, "base seed for property-based generation")
	events := flag.Int("events", 400, "events per generated property case")
	stride := flag.Int("stride", 32, "audit every Nth event, 1 or more (1 = every event)")
	repro := flag.String("repro", "", "replay a saved repro trace (text or binary) through the full suite")
	cliutil.Parse(name,
		"audit allocator heap invariants, differentially replay traces, and property-test with shrinking",
		"lpcheck -models all -allocs all -stride 1",
		"lpcheck -cases 1000 -seed 1993",
		"lpcheck -repro fail.trc")
	if *cases < 0 {
		cliutil.UsageError(name, "-cases %d: want 0 or more", *cases)
	}
	if *events < 1 {
		cliutil.UsageError(name, "-events %d: want 1 or more", *events)
	}
	if *stride < 1 {
		cliutil.UsageError(name, "-stride %d: want 1 or more", *stride)
	}

	fs, err := selectFactories(*allocs)
	if err != nil {
		cliutil.UsageError(name, "%v", err)
	}
	opt := check.Options{Stride: *stride, Predict: check.GenPredict(512)}

	ran := false
	if *repro != "" {
		ran = true
		tr, err := readTrace(*repro)
		if err != nil {
			cliutil.Fatal(name, err)
		}
		if err := check.CheckTrace(tr, fs, opt); err != nil {
			cliutil.Fatal(name, fmt.Errorf("repro %s: %w", *repro, err))
		}
		fmt.Printf("%s: repro %s: %d events, all checks pass\n", name, *repro, len(tr.Events))
	}

	if *models != "" {
		ran = true
		if err := auditModels(*models, *allocs, *scale, *stride); err != nil {
			cliutil.Fatal(name, err)
		}
	}

	n := *cases
	if n == 0 && !ran {
		n = 100
	}
	if n > 0 {
		gcfg := check.GenConfig{Events: *events}
		progress := func(done int) {
			if done%200 == 0 {
				fmt.Fprintf(os.Stderr, "%s: %d/%d cases\n", name, done, n)
			}
		}
		if err := check.Run(*seed, n, gcfg, fs, opt, progress); err != nil {
			if v, ok := err.(*check.Violation); ok {
				if werr := v.WriteRepro(os.Stdout); werr != nil {
					cliutil.Fatal(name, werr)
				}
			}
			cliutil.Fatal(name, err)
		}
		fmt.Printf("%s: %d property cases x %d allocators: all checks pass (seed %d)\n",
			name, n, len(fs), *seed)
	}
}

// selectFactories resolves the -allocs flag.
func selectFactories(spec string) ([]check.Factory, error) {
	if spec == "" || spec == "all" {
		return check.Factories()
	}
	return check.Factories(strings.Split(spec, ",")...)
}

// readTrace loads a repro file, accepting the binary format (LPTRACE
// magic) and the text format the shrinker prints.
func readTrace(path string) (*trace.Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(data, []byte("LPTRACE")) {
		return trace.ReadBinary(bytes.NewReader(data))
	}
	return trace.ReadText(bytes.NewReader(data))
}

// auditModels replays each selected synth model's Test trace through the
// selected allocators in one lockstep Diff, auditing every allocator on
// the stride, using the model's own trained predictor for the lifetime
// hints and its top training sizes for CUSTOMALLOC — the same wiring the
// experiments use. The predictor's Mapper names each site, so sitearena
// routes per site, as in Table A8 and the tournament.
func auditModels(modelSpec, allocSpec string, scale float64, stride int) error {
	var ms []*synth.Model
	if modelSpec == "all" {
		ms = synth.All()
	} else {
		for _, mn := range strings.Split(modelSpec, ",") {
			m := synth.ByName(mn)
			if m == nil {
				return fmt.Errorf("unknown model %q (want %s)", mn, strings.Join(core.ProgramOrder, ", "))
			}
			ms = append(ms, m)
		}
	}
	cfg := core.DefaultConfig(scale)
	for _, m := range ms {
		art, err := cfg.Build(m)
		if err != nil {
			return err
		}
		mapper := art.TrainPredictor.NewMapper(art.TestTrace.Table)
		fs, err := selectFactories(allocSpec)
		if err != nil {
			return err
		}
		hot := art.TrainDB.TopSizes(16)
		for i := range fs {
			if fs[i].Name == "custom" && len(hot) > 0 {
				fs[i].New = func() heapsim.Allocator { return heapsim.NewCustom(hot) }
			}
		}
		opt := check.Options{Stride: stride, Predict: mapper}
		if err := check.Diff(trace.NewSliceSource(art.TestTrace), fs, opt); err != nil {
			return fmt.Errorf("model %s: %w", m.Name, err)
		}
		fmt.Printf("%s: model %s: %d events x %d allocators audited (stride %d)\n",
			name, m.Name, len(art.TestTrace.Events), len(fs), stride)
	}
	return nil
}
