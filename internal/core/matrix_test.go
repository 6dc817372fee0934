package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/synth"
)

func TestParseMatrix(t *testing.T) {
	jobs, err := ParseMatrix("all")
	if err != nil {
		t.Fatalf("ParseMatrix(all): %v", err)
	}
	if want := len(ProgramOrder) * len(AllocatorNames); len(jobs) != want {
		t.Errorf("all expanded to %d jobs, want %d", len(jobs), want)
	}
	for _, j := range jobs {
		if j.Predictor != "true" {
			t.Errorf("default predictor = %q, want true", j.Predictor)
		}
	}

	jobs, err = ParseMatrix("gawk,cfrac/arena/none,true")
	if err != nil {
		t.Fatalf("ParseMatrix: %v", err)
	}
	want := []MatrixJob{
		{Model: "gawk", Allocator: "arena", Predictor: "none"},
		{Model: "gawk", Allocator: "arena", Predictor: "true"},
		{Model: "cfrac", Allocator: "arena", Predictor: "none"},
		{Model: "cfrac", Allocator: "arena", Predictor: "true"},
	}
	if !reflect.DeepEqual(jobs, want) {
		t.Errorf("jobs = %v, want %v", jobs, want)
	}

	for _, bad := range []string{"nosuch", "gawk/nosuch", "gawk/arena/nosuch", "a/b/c/d",
		"gawk,gawk", "gawk/arena,arena", "gawk/arena/none,none"} {
		if _, err := ParseMatrix(bad); err == nil {
			t.Errorf("ParseMatrix(%q) accepted", bad)
		}
	}
}

// FuzzParseMatrix: any spec either fails cleanly or expands to at most
// 75 distinct jobs, every one of which validates — never a panic or an
// expansion that grows with repeated names.
func FuzzParseMatrix(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		jobs, err := ParseMatrix(spec)
		if err != nil {
			return
		}
		max := len(ProgramOrder) * len(AllocatorNames) * len(PredictorModes)
		if len(jobs) == 0 || len(jobs) > max {
			t.Fatalf("%q expanded to %d jobs, want 1..%d", spec, len(jobs), max)
		}
		seen := make(map[MatrixJob]bool, len(jobs))
		for _, j := range jobs {
			if err := j.Validate(); err != nil {
				t.Fatalf("%q yielded invalid job %s: %v", spec, j, err)
			}
			if seen[j] {
				t.Fatalf("%q yielded job %s twice", spec, j)
			}
			seen[j] = true
		}
	})
}

func TestSortJobs(t *testing.T) {
	jobs := []MatrixJob{
		{Model: "perl", Allocator: "arena", Predictor: "true"},
		{Model: "cfrac", Allocator: "bsd", Predictor: "true"},
		{Model: "cfrac", Allocator: "firstfit", Predictor: "self"},
		{Model: "cfrac", Allocator: "firstfit", Predictor: "none"},
	}
	SortJobs(jobs)
	want := []MatrixJob{
		{Model: "cfrac", Allocator: "firstfit", Predictor: "none"},
		{Model: "cfrac", Allocator: "firstfit", Predictor: "self"},
		{Model: "cfrac", Allocator: "bsd", Predictor: "true"},
		{Model: "perl", Allocator: "arena", Predictor: "true"},
	}
	if !reflect.DeepEqual(jobs, want) {
		t.Errorf("sorted = %v, want %v", jobs, want)
	}
}

// TestMatrixRunnerConcurrent runs a hand-built job list on several
// workers with per-job collectors: uneven per-model groups (three gawk
// jobs, one cfrac) and one invalid job. The invalid job's error must stay
// in its own slot, and every other result must equal its serial observed
// Run (shared predictors must be safe to build once under contention)
// and agree with a plain serial replay (collectors must not perturb the
// simulation).
func TestMatrixRunnerConcurrent(t *testing.T) {
	jobs := []MatrixJob{
		{Model: "gawk", Allocator: "firstfit", Predictor: "true"},
		{Model: "cfrac", Allocator: "arena", Predictor: "true"},
		{Model: "gawk", Allocator: "slab", Predictor: "true"},
		{Model: "gawk", Allocator: "arena", Predictor: "self"},
		{Model: "gawk", Allocator: "bsd", Predictor: "none"},
	}
	newCol := func(j MatrixJob) *obs.Collector {
		return obs.NewCollector(obs.Options{Label: j.String()})
	}
	r := NewMatrixRunner(DefaultConfig(testScale))
	results := r.RunAll(jobs, 4, newCol)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	serial := NewMatrixRunner(DefaultConfig(testScale))
	for i, res := range results {
		if res.Job != jobs[i] {
			t.Errorf("result %d out of order: %v", i, res.Job)
		}
		if res.Job.Allocator == "slab" {
			if res.Err == nil || !strings.Contains(res.Err.Error(), `unknown allocator "slab"`) {
				t.Errorf("job %s: error %v, want the unknown-allocator error", res.Job, res.Err)
			}
			continue
		}
		if res.Err != nil {
			t.Errorf("job %s: %v", res.Job, res.Err)
			continue
		}
		if res.Res.Obs == nil {
			t.Errorf("job %s: no snapshot", res.Job)
			continue
		}
		if res.Res.Obs.Program != res.Job.Model || res.Res.Obs.Allocator != res.Job.Allocator {
			t.Errorf("job %s: snapshot tagged %s/%s", res.Job, res.Res.Obs.Program, res.Res.Obs.Allocator)
		}
		want, err := serial.Run(res.Job, newCol(res.Job))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Res, want) {
			t.Errorf("job %s: concurrent result diverges from its serial Run", res.Job)
		}
		plain, err := serial.Run(res.Job, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Res.MaxHeap != plain.MaxHeap || res.Res.TotalBytes != plain.TotalBytes {
			t.Errorf("job %s: observed run (heap %d, bytes %d) != plain run (heap %d, bytes %d)",
				res.Job, res.Res.MaxHeap, res.Res.TotalBytes, plain.MaxHeap, plain.TotalBytes)
		}
	}
}

// TestMatrixStreamingMatchesMaterialized pins the runner redesign: a
// matrix job replayed through the cached-config streaming path must
// produce the same SimResult — snapshot included — as the old
// materialized path (Build the artifacts, train on annotated objects,
// RunSim over the Test trace). This rests on two equivalences that are
// tested individually elsewhere and composed here: the synth Source is
// bit-identical to Generate, and streaming (death-order) training admits
// exactly the sites that birth-order training admits.
func TestMatrixStreamingMatchesMaterialized(t *testing.T) {
	cfg := DefaultConfig(testScale)
	r := NewMatrixRunner(cfg)
	for _, j := range []MatrixJob{
		{Model: "gawk", Allocator: "arena", Predictor: "true"},
		{Model: "gawk", Allocator: "arena", Predictor: "self"},
		{Model: "cfrac", Allocator: "firstfit", Predictor: "none"},
	} {
		got, err := r.Run(j, obs.NewCollector(obs.Options{Label: j.String()}))
		if err != nil {
			t.Fatalf("%s: %v", j, err)
		}
		a, err := cfg.Build(synth.ByName(j.Model))
		if err != nil {
			t.Fatalf("%s: %v", j, err)
		}
		var pred *profile.Predictor
		switch j.Predictor {
		case "true":
			pred = a.TrainPredictor
		case "self":
			pred = profile.TrainObjects(a.TestTrace.Table, a.TestObjs, cfg.Profile).Predictor()
		}
		want, err := RunSim(a.TestTrace, MustNewAllocator(j.Allocator), pred,
			obs.NewCollector(obs.Options{Label: j.String()}))
		if err != nil {
			t.Fatalf("%s: %v", j, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: streaming matrix run diverges from materialized run", j)
		}
	}
}

func TestNewAllocatorUnknown(t *testing.T) {
	if _, err := NewAllocator("slab"); err == nil {
		t.Error("unknown allocator accepted")
	}
	if err := (MatrixJob{Model: "gawk", Allocator: "arena", Predictor: "maybe"}).Validate(); err == nil {
		t.Error("bad predictor mode accepted")
	}
}

func TestBenchRoundTripAndDeterminism(t *testing.T) {
	jobs, err := ParseMatrix("gawk/arena,firstfit/true")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *BenchFile {
		r := NewMatrixRunner(DefaultConfig(testScale))
		f := &BenchFile{Label: "test", Scale: testScale, SeedBase: DefaultConfig(testScale).SeedBase}
		for _, res := range r.RunAll(jobs, 2, func(j MatrixJob) *obs.Collector {
			return obs.NewCollector(obs.Options{Label: j.String()})
		}) {
			if res.Err != nil {
				t.Fatalf("job %s: %v", res.Job, res.Err)
			}
			f.Runs = append(f.Runs, NewBenchRun(res.Job, res.Res))
		}
		return f
	}
	var a, b bytes.Buffer
	if err := WriteBench(&a, build()); err != nil {
		t.Fatalf("WriteBench: %v", err)
	}
	if err := WriteBench(&b, build()); err != nil {
		t.Fatalf("WriteBench: %v", err)
	}
	if a.String() != b.String() {
		t.Error("two identical bench runs serialized differently — bench output is nondeterministic")
	}

	f, err := ReadBench(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("ReadBench: %v", err)
	}
	if f.Schema != BenchSchema || len(f.Runs) != len(jobs) {
		t.Errorf("read back schema %d with %d runs", f.Schema, len(f.Runs))
	}
	flat := f.Flatten()
	for _, key := range []string{
		"gawk/arena/true/sim_bytes_per_op",
		"gawk/firstfit/true/sim_max_heap_bytes",
		"gawk/arena/true/clock",
	} {
		if _, ok := flat[key]; !ok {
			t.Errorf("Flatten missing %q", key)
		}
	}
	if f.Runs[0].Ops <= 0 || f.Runs[0].TotalBytes <= 0 {
		t.Errorf("degenerate bench run: %+v", f.Runs[0])
	}

	if _, err := ReadBench(strings.NewReader(`{"label":"x"}`)); err == nil {
		t.Error("schemaless bench file accepted")
	}
	if _, err := ReadBench(strings.NewReader(`{"schema":99}`)); err == nil {
		t.Error("future bench schema accepted")
	}
}
