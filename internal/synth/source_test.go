package synth

import (
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/callchain"
	"repro/internal/trace"
)

// TestSourceMatchesGenerate pins the load-bearing equivalence: for every
// model and both inputs, a plain Next loop over a fresh Source yields
// exactly the event sequence, chain table, and trailer metadata that
// Generate materializes. Generate drains the Source through its block
// face, so this also holds NextBlock to the scalar RNG draw order. All
// downstream determinism (calibration pins, the committed bench baseline)
// rides on this.
func TestSourceMatchesGenerate(t *testing.T) {
	for _, m := range All() {
		for _, in := range []Input{Train, Test} {
			cfg := Config{Input: in, Seed: 42, Scale: 0.01}
			want, err := m.Generate(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name, in, err)
			}
			src, events := drainScalar(t, m, cfg)
			meta := src.Meta()
			if meta.Program != want.Program || meta.Input != want.Input {
				t.Fatalf("%s/%s: meta %s/%s != %s/%s", m.Name, in,
					meta.Program, meta.Input, want.Program, want.Input)
			}
			if meta.FunctionCalls != want.FunctionCalls || meta.NonHeapRefs != want.NonHeapRefs {
				t.Fatalf("%s/%s: trailer %d/%d != %d/%d", m.Name, in,
					meta.FunctionCalls, meta.NonHeapRefs, want.FunctionCalls, want.NonHeapRefs)
			}
			if !reflect.DeepEqual(events, want.Events) {
				t.Fatalf("%s/%s: event sequences diverge", m.Name, in)
			}
			tb := src.Table()
			if tb.NumChains() != want.Table.NumChains() || tb.NumFuncs() != want.Table.NumFuncs() {
				t.Fatalf("%s/%s: tables diverge", m.Name, in)
			}
			for c := 0; c < tb.NumChains(); c++ {
				if tb.String(callchain.ChainID(c)) != want.Table.String(callchain.ChainID(c)) {
					t.Fatalf("%s/%s: chain %d diverges", m.Name, in, c)
				}
			}
		}
	}
}

func TestCountEvents(t *testing.T) {
	m := GAWK()
	cfg := Config{Input: Test, Seed: 7, Scale: 0.005}
	n, err := m.CountEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(tr.Events) {
		t.Fatalf("CountEvents = %d, Generate yields %d", n, len(tr.Events))
	}

	src, err := m.Source(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, known := src.EventCount(); known {
		t.Fatal("count must be unknown before SetCount")
	}
	src.SetCount(n)
	if got, known := src.EventCount(); !known || got != n {
		t.Fatalf("EventCount = %d,%v, want %d,true", got, known, n)
	}
}

func TestSourceConfigErrors(t *testing.T) {
	m := CFRAC()
	if _, err := m.Source(Config{Scale: 0}); err == nil {
		t.Fatal("zero scale accepted")
	}
	// A drained source stays drained.
	src, err := m.Source(Config{Input: Train, Seed: 1, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	blk := trace.NewEventBlock(0)
	for {
		if err := src.NextBlock(blk); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if err := src.NextBlock(blk); err != io.EOF || blk.N != 0 {
		t.Fatalf("post-EOF NextBlock = %d events, %v", blk.N, err)
	}
	if src.Meta().FunctionCalls == 0 {
		t.Fatal("trailer metadata missing after EOF")
	}
}

// TestSourceRejectsBadScale requires every generator entry point to
// refuse a scale that is not finite and positive, or whose byte budget
// overflows int64, instead of generating a NaN or empty trace.
func TestSourceRejectsBadScale(t *testing.T) {
	m := CFRAC()
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 1e300} {
		cfg := Config{Input: Train, Seed: 1, Scale: scale}
		if _, err := m.Source(cfg); err == nil {
			t.Errorf("Source accepted scale %v", scale)
		}
		if _, err := m.Generate(cfg); err == nil {
			t.Errorf("Generate accepted scale %v", scale)
		}
		if _, err := m.CountEvents(cfg); err == nil {
			t.Errorf("CountEvents accepted scale %v", scale)
		}
	}
}

// TestSourceBlocksMatchScalar pins the batched face of the generator on
// its own: for every model and both inputs, draining a fresh Source via
// NextBlock into a block whose odd capacity puts the end of the stream
// mid-block yields exactly the event sequence and trailer of a plain loop
// over the generation step, next, on another fresh Source. The RNG draw
// order is shared, so the two cannot diverge without this failing.
func TestSourceBlocksMatchScalar(t *testing.T) {
	for _, m := range All() {
		for _, in := range []Input{Train, Test} {
			cfg := Config{Input: in, Seed: 42, Scale: 0.01}
			want, wantEvents := drainScalar(t, m, cfg)
			src, err := m.Source(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name, in, err)
			}
			var got []trace.Event
			blk := trace.NewEventBlock(7)
			for {
				err := src.NextBlock(blk)
				if err == io.EOF {
					if blk.N != 0 {
						t.Fatalf("%s/%s: io.EOF with %d events in the block", m.Name, in, blk.N)
					}
					break
				}
				if err != nil {
					t.Fatalf("%s/%s: %v", m.Name, in, err)
				}
				if blk.N == 0 {
					t.Fatalf("%s/%s: empty block with nil error", m.Name, in)
				}
				for i := 0; i < blk.N; i++ {
					got = append(got, blk.Event(i))
				}
			}
			if !reflect.DeepEqual(got, wantEvents) {
				t.Fatalf("%s/%s: block event sequence diverges from scalar", m.Name, in)
			}
			gm, wm := src.Meta(), want.Meta()
			if gm.FunctionCalls != wm.FunctionCalls || gm.NonHeapRefs != wm.NonHeapRefs {
				t.Fatalf("%s/%s: trailer %d/%d != %d/%d", m.Name, in,
					gm.FunctionCalls, gm.NonHeapRefs, wm.FunctionCalls, wm.NonHeapRefs)
			}
		}
	}
}

// drainScalar builds a fresh Source for cfg and drains it with a plain
// loop over next, independent of Collect and of the block face.
func drainScalar(t *testing.T, m *Model, cfg Config) (*Source, []trace.Event) {
	t.Helper()
	src, err := m.Source(cfg)
	if err != nil {
		t.Fatalf("%s/%s: %v", m.Name, cfg.Input, err)
	}
	var events []trace.Event
	for {
		ev, err := src.next()
		if err == io.EOF {
			return src, events
		}
		if err != nil {
			t.Fatalf("%s/%s: %v", m.Name, cfg.Input, err)
		}
		events = append(events, ev)
	}
}

// TestSourceRecyclesIDs pins id reuse for every model and input at scale
// 0.02: an allocation takes the most recently freed id not yet reused,
// else the lowest id never handed out, so no id reaches the peak live
// count (the high-water mark up to and including that allocation) and
// the largest id is the trace's peak live count minus one. The count of
// objects live at the moment is no bound: LIFO reuse hands a late-freed
// high id back while few objects are live.
func TestSourceRecyclesIDs(t *testing.T) {
	for _, m := range All() {
		for _, in := range []Input{Train, Test} {
			_, events := drainScalar(t, m, Config{Input: in, Seed: 1993, Scale: 0.02})
			var freed []trace.ObjectID
			fresh, live, peak, maxID := trace.ObjectID(0), 0, 0, trace.ObjectID(0)
			for i, ev := range events {
				if ev.Kind == trace.KindFree {
					freed = append(freed, ev.Obj)
					live--
					continue
				}
				want := fresh
				if n := len(freed); n > 0 {
					want, freed = freed[n-1], freed[:n-1]
				} else {
					fresh++
				}
				if ev.Obj != want {
					t.Fatalf("%s/%s: event %d allocates id %d, want %d", m.Name, in, i, ev.Obj, want)
				}
				live++
				peak = max(peak, live)
				if int(ev.Obj) >= peak {
					t.Fatalf("%s/%s: event %d allocates id %d with a peak of %d live", m.Name, in, i, ev.Obj, peak)
				}
				maxID = max(maxID, ev.Obj)
			}
			if int(maxID) != peak-1 {
				t.Errorf("%s/%s: largest id %d, peak live %d", m.Name, in, maxID, peak)
			}
		}
	}
}
