package check

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/heapsim"
	"repro/internal/trace"
)

func TestLedgerValidatesTrace(t *testing.T) {
	led := NewLedger(8)
	ok := []trace.Event{
		{Kind: trace.KindAlloc, Obj: 1, Size: 16},
		{Kind: trace.KindFree, Obj: 1},
		{Kind: trace.KindAlloc, Obj: 1, Size: 8}, // id reuse after free is legal
	}
	for i, ev := range ok {
		if err := led.Apply(ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	if err := led.Apply(trace.Event{Kind: trace.KindAlloc, Obj: 1, Size: 8}); err == nil {
		t.Fatal("double alloc accepted")
	}
	if err := led.Apply(trace.Event{Kind: trace.KindFree, Obj: 99}); err == nil {
		t.Fatal("unknown free accepted")
	}
	if err := led.Apply(trace.Event{Kind: trace.KindAlloc, Obj: 2, Size: 0}); err == nil {
		t.Fatal("zero-size alloc accepted")
	}
	if led.LiveObjects() != 1 || led.LiveBytes() != 8 {
		t.Fatalf("ledger live = %d objs / %d bytes, want 1 / 8", led.LiveObjects(), led.LiveBytes())
	}
}

// TestAuditAllAllocators replays generated traces through every factory
// with a stride-1 audit: the conformance suite must hold on all seven
// built-in simulators.
func TestAuditAllAllocators(t *testing.T) {
	fs, err := Factories()
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		tr := GenTrace(seed, GenConfig{Events: 300})
		opt := Options{Stride: 1, Predict: GenPredict(512)}
		if err := Diff(trace.NewSliceSource(tr), fs, opt); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestDiffGeneratedTraces(t *testing.T) {
	fs, err := Factories()
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(10); seed < 14; seed++ {
		tr := GenTrace(seed, GenConfig{Events: 250})
		if err := Diff(trace.NewSliceSource(tr), fs, Options{Stride: 16, Predict: GenPredict(512)}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestFactoriesSelection(t *testing.T) {
	fs, err := Factories("bsd", "arena")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 || fs[0].Name != "bsd" || fs[1].Name != "arena" {
		t.Fatalf("got %+v", fs)
	}
	if _, err := Factories("slab"); err == nil {
		t.Fatal("unknown allocator accepted")
	}
}

func TestMetamorphicProperties(t *testing.T) {
	for seed := uint64(20); seed < 30; seed++ {
		tr := GenTrace(seed, GenConfig{})
		if err := CheckRelabelInvariance(tr); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if err := CheckArenaMonotone(tr, GenPredict(512), []int{4, 8, 16, 32}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	tr := GenTrace(7, GenConfig{Events: 50})
	re := Relabel(tr)
	if re.Table.NumChains() != tr.Table.NumChains() {
		t.Fatalf("chain count changed: %d -> %d", tr.Table.NumChains(), re.Table.NumChains())
	}
	if re.Table.String(tr.Events[0].Chain) == tr.Table.String(tr.Events[0].Chain) {
		t.Fatal("relabeling left a chain name unchanged")
	}
	if len(re.Events) != len(tr.Events) {
		t.Fatal("relabeling changed the event list")
	}
}

// leakyFree is a deliberately broken allocator: every leakEvery-th Free
// is silently dropped, while the reported op counts are faked to stay
// ledger-consistent — so only the walked layout can expose the bug. This
// is the stand-in for the "skip one coalesce" class of accounting bug
// the harness exists to catch.
type leakyFree struct {
	*heapsim.FirstFit
	frees     int64
	leakEvery int64
	leaked    int64
}

func newLeaky(every int64) *leakyFree {
	return &leakyFree{FirstFit: heapsim.NewFirstFit(), leakEvery: every}
}

func (l *leakyFree) Free(id trace.ObjectID) error {
	l.frees++
	if l.frees%l.leakEvery == 0 {
		l.leaked++
		return nil // drop the free: the object stays resident
	}
	return l.FirstFit.Free(id)
}

func (l *leakyFree) Counts() heapsim.OpCounts {
	c := l.FirstFit.Counts()
	c.Frees += l.leaked // lie: pretend the dropped frees happened
	return c
}

// leakyFactory builds a fresh leakyFree per replay.
func leakyFactory(every int64) Factory {
	return Factory{Name: "leaky", New: func() heapsim.Allocator { return newLeaky(every) }}
}

func TestAuditCatchesLeakyFree(t *testing.T) {
	tr := GenTrace(42, GenConfig{Events: 200})
	err := Diff(trace.NewSliceSource(tr), []Factory{leakyFactory(5)}, Options{Stride: 1})
	if err == nil {
		t.Fatal("audit passed a free-dropping allocator")
	}
	if !strings.Contains(err.Error(), "leaky") {
		t.Fatalf("violation not attributed to the broken allocator: %v", err)
	}
}

// TestShrinkMinimizesInjectedBug is the in-tree half of the acceptance
// demo: a deliberately broken allocator must not only be caught, the
// delta-debugging shrinker must reduce the failing trace to a handful of
// events (5 allocs + 5 frees reaches the fifth, dropped, free).
func TestShrinkMinimizesInjectedBug(t *testing.T) {
	fails := func(tr *trace.Trace) error {
		return Diff(trace.NewSliceSource(tr), []Factory{leakyFactory(5)}, Options{Stride: 1})
	}
	tr := GenTrace(42, GenConfig{Events: 400})
	if fails(tr) == nil {
		t.Fatal("seed trace does not trigger the injected bug")
	}
	shrunk := Shrink(tr, fails)
	if err := fails(shrunk); err == nil {
		t.Fatal("shrunk trace no longer fails")
	}
	if got := len(shrunk.Events); got > 20 {
		t.Fatalf("shrunk repro has %d events, want <= 20", got)
	}
	if got := len(shrunk.Events); got != 10 {
		t.Logf("note: shrunk to %d events (minimum possible is 10)", got)
	}
}

func TestRunReportsShrunkViolation(t *testing.T) {
	fs := []Factory{
		{Name: "firstfit", New: func() heapsim.Allocator { return heapsim.NewFirstFit() }},
		leakyFactory(3),
	}
	err := Run(1993, 50, GenConfig{Events: 120}, fs, Options{Stride: 4}, nil)
	if err == nil {
		t.Fatal("property run passed with a broken participant")
	}
	v, ok := err.(*Violation)
	if !ok {
		t.Fatalf("want *Violation, got %T: %v", err, err)
	}
	if v.Err == nil || v.Trace == nil || len(v.Trace.Events) == 0 {
		t.Fatalf("violation incomplete: %+v", v)
	}
	if len(v.Trace.Events) > 20 {
		t.Errorf("repro not minimized: %d events", len(v.Trace.Events))
	}

	// The printed repro must itself be a replayable trace.
	var buf bytes.Buffer
	if err := v.WriteRepro(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	start := strings.Index(out, "--- repro.trc ---\n")
	end := strings.Index(out, "--- lptrace2 hex ---")
	if start < 0 || end < 0 {
		t.Fatalf("repro markers missing:\n%s", out)
	}
	text := out[start+len("--- repro.trc ---\n") : end]
	re, err2 := trace.ReadText(strings.NewReader(text))
	if err2 != nil {
		t.Fatalf("repro text does not parse: %v\n%s", err2, text)
	}
	if len(re.Events) != len(v.Trace.Events) {
		t.Fatalf("repro has %d events, violation trace %d", len(re.Events), len(v.Trace.Events))
	}
}

func TestRunCleanSuite(t *testing.T) {
	fs, err := Factories()
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	err = Run(7, 25, GenConfig{Events: 150}, fs, Options{Stride: 8, Predict: GenPredict(512)},
		func(n int) { done = n })
	if err != nil {
		t.Fatalf("clean property run failed: %v", err)
	}
	if done != 25 {
		t.Fatalf("progress reported %d cases, want 25", done)
	}
}

func TestGenTraceDeterministic(t *testing.T) {
	a := GenTrace(99, GenConfig{})
	b := GenTrace(99, GenConfig{})
	if len(a.Events) != len(b.Events) {
		t.Fatal("same seed, different event counts")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("same seed diverges at event %d", i)
		}
	}
	if err := trace.Validate(a); err != nil {
		t.Fatalf("generated trace illegal: %v", err)
	}
}
