package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
)

// The committed matrix baselines the matrix workload reproduces at the
// golden seed: lpbench -matrix all and lpbench -heapscan -only heap.
var matrixBaselines = []string{"BENCH_seed.json", "FRAG_seed.json"}

// expectation is what one workload's output is checked against.
type expectation struct {
	// root is the repository root the matrix baselines are read from.
	root string
	// body is the golden report after the command's header lines.
	body []byte
	// baselineMetrics is how many committed matrix metrics the last check
	// compared.
	baselineMetrics int
}

func loadExpectation(root string, wl *workload, seed uint64) (*expectation, error) {
	e := &expectation{root: root}
	if wl.golden != "" {
		raw, err := os.ReadFile(filepath.Join(root, wl.golden))
		if err != nil {
			return nil, err
		}
		// The header lines end at the first blank line; they are printed
		// by the command's main, which the benchmark does not call.
		i := bytes.Index(raw, []byte("\n\n"))
		if i < 0 {
			return nil, fmt.Errorf("%s: no header", wl.golden)
		}
		e.body = raw[i+2:]
	}
	if wl.name == "matrix" && seed == goldenSeed {
		// Fail before the first set-up if a baseline is missing.
		for _, name := range matrixBaselines {
			if _, err := readBaseline(root, name); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

// readBaseline reads one committed bench file's flattened metrics. Checks
// read it after each call rather than keeping it, so that it never adds
// to a call's peak heap.
func readBaseline(root, name string) (map[string]float64, error) {
	f, err := os.Open(filepath.Join(root, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bf, err := core.ReadBench(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return bf.Flatten(), nil
}

// check verifies one call's output. At the golden seed a report must equal
// the golden byte for byte, and the matrix must reproduce every committed
// baseline metric exactly. At other seeds a report must have the golden's
// shape: the same lines, each starting with the same word. The matrix is
// checked at every seed against its own set-up: each job replays the
// model's whole Test input, and the bare firstfit job matches the set-up's
// unobserved replay, since a collector must not change a result.
func (e *expectation) check(b *bench, out []byte) error {
	if b.wl.name == "matrix" {
		return e.checkMatrix(b, out)
	}
	if b.seed == goldenSeed {
		if !bytes.Equal(out, e.body) {
			return fmt.Errorf("output differs from %s at %s", b.wl.golden, firstDiff(out, e.body))
		}
		return nil
	}
	got, want := shape(out), shape(e.body)
	if len(got) != len(want) {
		return fmt.Errorf("output has %d lines, %s has %d", len(got), b.wl.golden, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("line %d starts with %q, %s has %q", i+1, got[i], b.wl.golden, want[i])
		}
	}
	return nil
}

func (e *expectation) checkMatrix(b *bench, out []byte) error {
	f, err := core.ReadBench(bytes.NewReader(out))
	if err != nil {
		return err
	}
	if len(f.Runs) != b.wl.units {
		return fmt.Errorf("bench file has %d runs, want %d", len(f.Runs), b.wl.units)
	}
	bare := map[string]core.SimResult{}
	for i, m := range b.cfg.Models {
		bare[m.Name] = b.bare[i]
	}
	for _, r := range f.Runs {
		want := bare[r.Model]
		if ops := want.Counts.Allocs + want.Counts.Frees; r.Ops != ops {
			return fmt.Errorf("%s/%s/%s replayed %d events, the Test input has %d", r.Model, r.Allocator, r.Predictor, r.Ops, ops)
		}
		if r.Allocator == "firstfit" && r.Predictor == "none" && r.MaxHeap != want.MaxHeap {
			return fmt.Errorf("%s/firstfit/none max heap %d with a collector, %d without", r.Model, r.MaxHeap, want.MaxHeap)
		}
	}
	if b.seed != goldenSeed {
		return nil
	}
	got := f.Flatten()
	e.baselineMetrics = 0
	for _, name := range matrixBaselines {
		want, err := readBaseline(e.root, name)
		if err != nil {
			return err
		}
		for k, v := range want {
			if g, ok := got[k]; !ok || g != v {
				return fmt.Errorf("%s: metric %s = %v, want %v", name, k, g, v)
			}
		}
		e.baselineMetrics += len(want)
	}
	return nil
}

// shape is the first word of every line of a report. A table rule's
// width follows its columns' widths, so every rule reads as one word.
func shape(out []byte) []string {
	lines := strings.Split(string(out), "\n")
	for i, l := range lines {
		f := strings.Fields(l)
		switch {
		case len(f) == 0:
			lines[i] = ""
		case strings.Trim(f[0], "-") == "":
			lines[i] = "-"
		default:
			lines[i] = f[0]
		}
	}
	return lines
}

// firstDiff names the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line %d: output has %d lines, want %d", min(len(g), len(w))+1, len(g), len(w))
}
