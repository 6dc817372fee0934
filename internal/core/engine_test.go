package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// engineScale keeps the scheduler tests fast enough for the -race tier
// while still exercising every cell of every program.
const engineScale = 0.005

func newTestEngine() *Engine {
	return NewEngine(DefaultConfig(engineScale))
}

func TestParseTables(t *testing.T) {
	want, err := ParseTables("2, 7,A")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"2", "7", "A"} {
		if !want[k] {
			t.Errorf("missing key %s", k)
		}
	}
	if len(want) != 3 {
		t.Fatalf("want 3 keys, got %v", want)
	}
	if _, err := ParseTables("2,Q"); err == nil || !strings.Contains(err.Error(), `unknown table "Q"`) {
		t.Fatalf("bad spec error = %v", err)
	}
	if _, err := ParseTables(""); err == nil {
		t.Fatal("empty spec should be rejected (empty table key)")
	}
}

func TestEngineRejectsUnknownProgram(t *testing.T) {
	eng := newTestEngine()
	if _, err := eng.Run(Spec{Programs: []string{"doom"}}); err == nil ||
		!strings.Contains(err.Error(), `unknown program "doom"`) {
		t.Fatalf("err = %v", err)
	}
	if _, err := eng.Artifacts("doom"); err == nil {
		t.Fatal("Artifacts should reject unknown model")
	}
}

func TestEngineRejectsUnknownTableKey(t *testing.T) {
	eng := newTestEngine()
	if _, err := eng.Run(Spec{Tables: map[string]bool{"Q": true}}); err == nil ||
		!strings.Contains(err.Error(), `unknown table "Q"`) {
		t.Fatalf("err = %v", err)
	}
}

// TestEngineDeterministicAcrossWorkerCounts is the core acceptance
// property: the rendered report is byte-identical at any worker count.
// The engine is shared, so the later runs also exercise cached-artifact
// scheduling (all cells racing for the semaphore immediately) under
// -race.
func TestEngineDeterministicAcrossWorkerCounts(t *testing.T) {
	eng := newTestEngine()
	nCells := len(cellDefs)
	counts := []int{1, 4, nCells}
	var ref []byte
	for _, w := range counts {
		res, err := eng.Run(Spec{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(res.Output) == 0 {
			t.Fatalf("workers=%d: empty output", w)
		}
		if ref == nil {
			ref = res.Output
			continue
		}
		if !bytes.Equal(ref, res.Output) {
			t.Fatalf("workers=%d output differs from workers=%d (%d vs %d bytes)",
				w, counts[0], len(res.Output), len(ref))
		}
	}
}

// TestEngineFreshBuildDeterminism compares two independent engines — one
// serial, one maximally parallel — so the artifact build path itself
// (not just cached cells) is covered by the byte-identity guarantee.
func TestEngineFreshBuildDeterminism(t *testing.T) {
	progs := []string{"cfrac", "gawk"}
	a, err := NewEngine(DefaultConfig(engineScale)).Run(Spec{Programs: progs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(DefaultConfig(engineScale)).Run(Spec{Programs: progs, Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Output, b.Output) {
		t.Fatalf("fresh engines disagree: %d vs %d bytes", len(a.Output), len(b.Output))
	}
}

// TestEngineProgramSubsetOrder checks -programs is order-insensitive:
// rows always render in the configuration's canonical program order.
func TestEngineProgramSubsetOrder(t *testing.T) {
	eng := newTestEngine()
	spec := Spec{Tables: map[string]bool{"1": true}, Workers: 4}
	spec.Programs = []string{"gawk", "cfrac"}
	a, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Programs = []string{"cfrac", "gawk"}
	b, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Output, b.Output) {
		t.Fatal("program order in -programs changed the output")
	}
	out := string(a.Output)
	ci, gi := strings.Index(out, "cfrac"), strings.Index(out, "gawk")
	if ci < 0 || gi < 0 || ci > gi {
		t.Fatalf("canonical order violated: cfrac@%d gawk@%d", ci, gi)
	}
	if strings.Contains(out, "perl") {
		t.Fatal("unselected program leaked into output")
	}
}

// TestEngineTableSubset checks only requested tables render, and that a
// subset run's bytes match the corresponding slice of a full run.
func TestEngineTableSubset(t *testing.T) {
	eng := newTestEngine()
	full, err := eng.Run(Spec{Programs: []string{"cfrac"}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Run(Spec{
		Programs: []string{"cfrac"},
		Tables:   map[string]bool{"3": true},
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := string(sub.Output)
	if !strings.Contains(out, "Table 3:") {
		t.Fatal("requested table missing")
	}
	if strings.Contains(out, "Table 4:") || strings.Contains(out, "Ablation") {
		t.Fatal("unrequested table rendered")
	}
	if !bytes.Contains(full.Output, sub.Output) {
		t.Fatal("subset table bytes differ from the full run's rendering")
	}
}

func TestEngineTimingsAndCollector(t *testing.T) {
	eng := newTestEngine()
	col := obs.NewCollector(obs.Options{Label: "lptables/engine"})
	var mu sync.Mutex
	var msgs []string
	res, err := eng.Run(Spec{
		Programs:  []string{"espresso"},
		Tables:    map[string]bool{"2": true, "5": true},
		Workers:   2,
		Collector: col,
		Progress: func(m string) {
			mu.Lock()
			msgs = append(msgs, m)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One build plus one timing per selected cell, in deterministic
	// program-major order with the build first.
	if len(res.Timings) != 3 {
		t.Fatalf("timings = %+v", res.Timings)
	}
	if res.Timings[0].Cell != "build" || res.Timings[0].Program != "espresso" {
		t.Fatalf("first timing should be the build: %+v", res.Timings[0])
	}
	if res.Timings[1].Cell != "2" || res.Timings[2].Cell != "5" {
		t.Fatalf("cell timing order: %+v", res.Timings)
	}
	if res.CPUTime() <= 0 || res.Wall <= 0 {
		t.Fatalf("non-positive durations: cpu=%v wall=%v", res.CPUTime(), res.Wall)
	}
	snap := col.Snapshot()
	if snap.Timings["engine_build"].Count != 1 {
		t.Fatalf("engine_build timing = %+v", snap.Timings["engine_build"])
	}
	if snap.Timings["engine_cell"].Count != 2 {
		t.Fatalf("engine_cell timing = %+v", snap.Timings["engine_cell"])
	}
	found := false
	mu.Lock()
	for _, m := range msgs {
		if strings.Contains(m, "building espresso") {
			found = true
		}
	}
	mu.Unlock()
	if !found {
		t.Fatalf("no build progress message in %v", msgs)
	}

	var b bytes.Buffer
	res.WriteTimings(&b)
	s := b.String()
	if !strings.Contains(s, "per-cell wall clock") || !strings.Contains(s, "espresso") ||
		!strings.Contains(s, "overlap") {
		t.Fatalf("timing summary:\n%s", s)
	}
}

func TestEngineBuildErrorIsDeterministic(t *testing.T) {
	cfg := DefaultConfig(engineScale)
	cfg.Scale = -1 // forces every build to fail
	eng := NewEngine(cfg)
	_, err := eng.Run(Spec{Workers: 8})
	if err == nil {
		t.Fatal("expected build failure")
	}
	// The first error in canonical program order wins, regardless of
	// which build failed first on the clock.
	if !strings.Contains(err.Error(), "building cfrac") {
		t.Fatalf("err = %v", err)
	}
	var errAgain error
	if _, errAgain = eng.Run(Spec{Workers: 1}); errAgain == nil {
		t.Fatal("cached build error lost")
	}
	if err.Error() != errAgain.Error() {
		t.Fatalf("error not stable across runs: %v vs %v", err, errAgain)
	}
}

func TestEngineWorkersClampAndZeroValueSpec(t *testing.T) {
	eng := newTestEngine()
	res, err := eng.Run(Spec{
		Programs: []string{"ghost"},
		Tables:   map[string]bool{"1": true},
		Workers:  -3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(res.Output), "ghost") {
		t.Fatal("missing row")
	}
}

func TestEngineArtifactsCachedAndWarmed(t *testing.T) {
	eng := newTestEngine()
	a1, err := eng.Artifacts("cfrac")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := eng.Artifacts("cfrac")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("Artifacts not cached")
	}
	// Warming must cover the mapper paths cells use concurrently: after
	// it, deriving eliminated/sub-chains and cross-mapping test names
	// is a pure map hit (chain counts stay put).
	trainTb, testTb := a1.TrainTrace.Table, a1.TestTrace.Table
	nTrain, nTest := trainTb.NumChains(), testTb.NumChains()
	warmArtifacts(a1)
	if trainTb.NumChains() != nTrain || testTb.NumChains() != nTest {
		t.Fatalf("second warm interned new chains: train %d->%d test %d->%d",
			nTrain, trainTb.NumChains(), nTest, testTb.NumChains())
	}
}

// TestScheduleFirstErrorInOrder pins the scheduler's contract at every
// worker count: a failed build runs none of its program's cells, every
// other cell runs exactly once, and the reported error is the first in
// deterministic order — builds by program, then cells by (program, cell).
func TestScheduleFirstErrorInOrder(t *testing.T) {
	const nProg, nCell = 3, 4
	for _, workers := range []int{1, 2, nProg * nCell} {
		for _, failBuild := range []bool{false, true} {
			var mu sync.Mutex
			ran := map[[2]int]int{}
			build := func(pi int) (func(ci int) error, error) {
				if failBuild && pi == 2 {
					return nil, errors.New("build 2")
				}
				return func(ci int) error {
					mu.Lock()
					ran[[2]int{pi, ci}]++
					mu.Unlock()
					if (pi == 0 && ci == 3) || (pi == 1 && ci == 1) {
						return fmt.Errorf("cell %d/%d", pi, ci)
					}
					return nil
				}, nil
			}
			err := Schedule(nProg, nCell, workers, build)
			want := "cell 0/3"
			if failBuild {
				want = "build 2"
			}
			if err == nil || err.Error() != want {
				t.Errorf("workers=%d failBuild=%v: error %v, want %q", workers, failBuild, err, want)
			}
			for pi := 0; pi < nProg; pi++ {
				for ci := 0; ci < nCell; ci++ {
					wantRuns := 1
					if failBuild && pi == 2 {
						wantRuns = 0
					}
					if got := ran[[2]int{pi, ci}]; got != wantRuns {
						t.Errorf("workers=%d failBuild=%v: cell %d/%d ran %d times, want %d",
							workers, failBuild, pi, ci, got, wantRuns)
					}
				}
			}
		}
	}
}
