package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestSliceSourceRoundTrip(t *testing.T) {
	tr := buildTrace(t)
	src := NewSliceSource(tr)
	if n, ok := src.EventCount(); !ok || n != len(tr.Events) {
		t.Fatalf("EventCount = %d,%v, want %d,true", n, ok, len(tr.Events))
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, tr, got)
	if got.Table != tr.Table {
		t.Fatal("Collect must preserve the source table")
	}
	// A drained source stays drained.
	if err := src.NextBlock(NewEventBlock(0)); err != io.EOF {
		t.Fatalf("drained source NextBlock = %v, want io.EOF", err)
	}
}

// TestStreamWriterReaderRoundTrip checks the LPTRACE2 path: stream out
// through Writer, stream back through NewReader, and land on the same
// trace — including the trailer metadata that is only final after EOF.
func TestStreamWriterReaderRoundTrip(t *testing.T) {
	tr := buildTrace(t)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Program: tr.Program, Input: tr.Input}, tr.Table)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(tr.FunctionCalls, tr.NonHeapRefs); err != nil {
		t.Fatal(err)
	}

	src, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := any(src).(Counted); ok {
		t.Fatal("the binary reader must not claim a known event count")
	}
	if m := src.Meta(); m.FunctionCalls != 0 || m.Program != tr.Program {
		t.Fatalf("pre-EOF meta: %+v", m)
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, tr, got)
	// Binary readers preserve chain ids exactly.
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

// TestStreamTruncationIsNotEOF pins the Source contract: a stream cut off
// mid-event or before the trailer must fail with a real error, never the
// clean io.EOF that would silently truncate the trace.
func TestStreamTruncationIsNotEOF(t *testing.T) {
	tr := randomTrace(3, 40)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Program: "p"}, tr.Table)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(1, 2); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, n := range []int{len(data) - 1, len(data) - 2, len(data) / 2} {
		src, err := NewReader(bytes.NewReader(data[:n]))
		if err != nil {
			continue // truncated inside the header: also fine
		}
		_, err = drain(t, src, DefaultBlockLen)
		if err == io.EOF {
			t.Fatalf("truncation at %d/%d bytes reported clean io.EOF", n, len(data))
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Logf("truncation at %d: %v (non-EOF error, acceptable)", n, err)
		}
	}
}

func TestTextStreamRoundTrip(t *testing.T) {
	tr := buildTrace(t)
	var buf bytes.Buffer
	w, err := NewTextWriter(&buf, Meta{Program: tr.Program, Input: tr.Input}, tr.Table)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(tr.FunctionCalls, tr.NonHeapRefs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, tr, got)
}

// TestAnnotateStreamMatchesSlice pins the contract the streaming
// annotator shares with Annotate: the same []Object records — same
// births, lifetimes, never-freed handling — for the same trace. The
// stream emits in death order with never-freed objects after EOF, so the
// collected output is re-sorted to birth order before comparing. Besides
// random traces, the inputs include an object id reused after its free,
// which both annotators must accept as two objects.
func TestAnnotateStreamMatchesSlice(t *testing.T) {
	var traces []*Trace
	for seed := uint64(1); seed <= 5; seed++ {
		traces = append(traces, randomTrace(seed, 500))
	}
	traces = append(traces, &Trace{Events: []Event{
		{Kind: KindAlloc, Obj: 1, Size: 8},
		{Kind: KindFree, Obj: 1},
		{Kind: KindAlloc, Obj: 1, Size: 16},
		{Kind: KindFree, Obj: 1},
	}})
	for n, tr := range traces {
		want, err := Annotate(tr)
		if err != nil {
			t.Fatalf("trace %d: %v", n, err)
		}
		var got []Object
		if err := AnnotateStream(NewSliceSource(tr), func(o Object) error {
			got = append(got, o)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(a, b int) bool { return got[a].Birth < got[b].Birth })
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trace %d: stream annotation diverges from slice annotation", n)
		}
	}
}

// TestAnnotateStreamNeverFreedOrder checks never-freed objects arrive
// after the stream ends, in birth order, with end-of-trace lifetimes.
func TestAnnotateStreamNeverFreedOrder(t *testing.T) {
	tr := buildTrace(t) // obj 1 never freed; total bytes 200
	var order []ObjectID
	var leftover *Object
	if err := AnnotateStream(NewSliceSource(tr), func(o Object) error {
		order = append(order, o.ID)
		if !o.Freed {
			c := o
			leftover = &c
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Death order: obj 0 dies first, then obj 2; obj 1 trails as leftover.
	want := []ObjectID{0, 2, 1}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("emission order %v, want %v", order, want)
	}
	if leftover == nil || leftover.ID != 1 || leftover.Lifetime != 100 || leftover.Freed {
		t.Fatalf("never-freed object mishandled: %+v", leftover)
	}
}

func TestAnnotateStreamErrors(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
		want   string
	}{
		{"double alloc", []Event{
			{Kind: KindAlloc, Obj: 1, Size: 8},
			{Kind: KindAlloc, Obj: 1, Size: 8},
		}, "allocated twice"},
		{"free unknown", []Event{{Kind: KindFree, Obj: 9}}, "unknown object"},
		{"double free", []Event{
			{Kind: KindAlloc, Obj: 1, Size: 8},
			{Kind: KindFree, Obj: 1},
			{Kind: KindFree, Obj: 1},
		}, "unknown object"},
		{"bad kind", []Event{{Kind: 0, Obj: 1}}, "bad kind"},
	}
	for _, c := range cases {
		tr := &Trace{Events: c.events}
		err := AnnotateStream(NewSliceSource(tr), func(Object) error { return nil })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	// emit errors stop the scan.
	tr := buildTrace(t)
	sentinel := errors.New("stop")
	if err := AnnotateStream(NewSliceSource(tr), func(Object) error { return sentinel }); err != sentinel {
		t.Fatalf("emit error not propagated: %v", err)
	}
}

// TestStatsAccumMatchesComputeStats pins the incremental statistics
// against the whole-trace scan.
func TestStatsAccumMatchesComputeStats(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		tr := randomTrace(seed, 400)
		tr.NonHeapRefs = 12345
		want, err := ComputeStats(tr)
		if err != nil {
			t.Fatal(err)
		}
		acc := NewStatsAccum()
		for _, ev := range tr.Events {
			if err := acc.Add(ev); err != nil {
				t.Fatal(err)
			}
		}
		if acc.Events() != len(tr.Events) {
			t.Fatalf("Events() = %d, want %d", acc.Events(), len(tr.Events))
		}
		if got := acc.Finish(tr.NonHeapRefs); got != want {
			t.Fatalf("seed %d: accum %+v != scan %+v", seed, got, want)
		}
	}
}

func TestWriterRejectsBadKind(t *testing.T) {
	tr := buildTrace(t)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{}, tr.Table)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Event{Kind: 0}); err == nil {
		t.Fatal("kind 0 (the sentinel byte) must be rejected")
	}
	if err := w.Close(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Event{Kind: KindAlloc}); err == nil {
		t.Fatal("write after Close accepted")
	}
	if err := w.Close(0, 0); err == nil {
		t.Fatal("double Close accepted")
	}
}
