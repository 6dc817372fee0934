package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/callchain"
)

// scalarOnly hides any native NextBlock so AsBlockSource must wrap.
type scalarOnly struct{ src Source }

func (s scalarOnly) Meta() Meta              { return s.src.Meta() }
func (s scalarOnly) Table() *callchain.Table { return s.src.Table() }
func (s scalarOnly) Next() (Event, error)    { return s.src.Next() }

func TestSliceSourceBlocksRoundTrip(t *testing.T) {
	tr := randomTrace(7, 1300) // not a multiple of DefaultBlockLen
	got, err := Collect(NewSliceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, tr, got)
}

func TestBlockAdapterRoundTrip(t *testing.T) {
	tr := randomTrace(8, 700)
	got, err := Collect(scalarOnly{NewSliceSource(tr)})
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, tr, got)
}

// errAfter yields n events from src and then a fixed error.
type errAfter struct {
	src  Source
	n    int
	seen int
	err  error
}

func (s *errAfter) Meta() Meta              { return s.src.Meta() }
func (s *errAfter) Table() *callchain.Table { return s.src.Table() }
func (s *errAfter) Next() (Event, error) {
	if s.seen >= s.n {
		return Event{}, s.err
	}
	s.seen++
	return s.src.Next()
}

// The batched contract: a terminal error after a partial block is held
// back, so consumers see every event first and the error exactly once,
// on the following call.
func TestBlockAdapterHoldsErrorAfterPartialBlock(t *testing.T) {
	tr := randomTrace(10, DefaultBlockLen+37)
	boom := errors.New("boom")
	bs := AsBlockSource(scalarOnly{&errAfter{src: NewSliceSource(tr), n: DefaultBlockLen + 37, err: boom}})

	blk := NewEventBlock(0)
	if err := bs.NextBlock(blk); err != nil || blk.N != DefaultBlockLen {
		t.Fatalf("block 1: n=%d err=%v, want %d/nil", blk.N, err, DefaultBlockLen)
	}
	if err := bs.NextBlock(blk); err != nil || blk.N != 37 {
		t.Fatalf("block 2: n=%d err=%v, want 37/nil (error held back)", blk.N, err)
	}
	if err := bs.NextBlock(blk); err != boom || blk.N != 0 {
		t.Fatalf("block 3: n=%d err=%v, want 0/boom", blk.N, err)
	}
}

// An error landing exactly on a block boundary is returned immediately
// with an empty block — never with events alongside it.
func TestBlockAdapterErrorOnBoundary(t *testing.T) {
	tr := randomTrace(11, DefaultBlockLen)
	boom := errors.New("boom")
	bs := AsBlockSource(scalarOnly{&errAfter{src: NewSliceSource(tr), n: DefaultBlockLen, err: boom}})

	blk := NewEventBlock(0)
	if err := bs.NextBlock(blk); err != nil || blk.N != DefaultBlockLen {
		t.Fatalf("block 1: n=%d err=%v, want %d/nil", blk.N, err, DefaultBlockLen)
	}
	if err := bs.NextBlock(blk); err != boom || blk.N != 0 {
		t.Fatalf("block 2: n=%d err=%v, want 0/boom", blk.N, err)
	}
}

// TestReaderNextBlock batches a Reader through AsBlockSource's adapter
// (Collect drains through it): every event and the trailer arrive, and
// the drained stream keeps answering io.EOF.
func TestReaderNextBlock(t *testing.T) {
	tr := randomTrace(12, 2000)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Program: "rand", Input: "x"}, tr.Table)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(4242, 99); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	tr.FunctionCalls, tr.NonHeapRefs = 4242, 99
	assertTracesEqual(t, tr, got)
	// Trailer metadata must be final once NextBlock has returned io.EOF.
	if m := r.Meta(); m.FunctionCalls != 4242 || m.NonHeapRefs != 99 {
		t.Fatalf("trailer meta = %+v, want 4242/99", m)
	}
	blk := NewEventBlock(0)
	if err := AsBlockSource(r).NextBlock(blk); err != io.EOF {
		t.Fatalf("NextBlock after EOF = %v, want io.EOF", err)
	}
}

func TestColumnsSourceViews(t *testing.T) {
	tr := randomTrace(13, 1100)
	cs := NewTraceColumns(tr)
	if n, ok := cs.EventCount(); !ok || n != len(tr.Events) {
		t.Fatalf("EventCount = %d/%v, want %d/true", n, ok, len(tr.Events))
	}
	got, err := Collect(cs)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, tr, got)

	// Reset rewinds for another replay, and the scalar face agrees.
	cs.Reset()
	for i := range tr.Events {
		ev, err := cs.Next()
		if err != nil || ev != tr.Events[i] {
			t.Fatalf("scalar event %d = %+v, %v; want %+v", i, ev, err, tr.Events[i])
		}
	}
	if _, err := cs.Next(); err != io.EOF {
		t.Fatalf("scalar Next past the end = %v, want io.EOF", err)
	}

	// NextBlock repoints at the column storage rather than copying.
	cs.Reset()
	blk := NewEventBlock(0)
	if err := cs.NextBlock(blk); err != nil {
		t.Fatal(err)
	}
	if &blk.Kinds[0] != &cs.cols.Kinds[0] {
		t.Fatal("ColumnsSource.NextBlock copied instead of repointing")
	}
}

func TestAsBlockSourcePreservesCounted(t *testing.T) {
	tr := randomTrace(14, 50)
	bs := AsBlockSource(scalarOnly{NewSliceSource(tr)})
	c, ok := bs.(Counted)
	if !ok {
		t.Fatal("block adapter lost the Counted face")
	}
	// scalarOnly hides Counted too, so the adapter reports unknown —
	// never a wrong number.
	if n, known := c.EventCount(); known {
		t.Fatalf("EventCount = %d/known over an uncounted source", n)
	}
}

// TestReaderNextBlockTruncatedMidBlock pins the error path of a Reader
// batched through AsBlockSource on a stream cut off in the middle of the
// event section: every fully-decoded event is delivered first, then the
// truncation surfaces as exactly io.ErrUnexpectedEOF — not io.EOF, which
// would let a consumer mistake a torn stream for a complete one.
func TestReaderNextBlockTruncatedMidBlock(t *testing.T) {
	tr := randomTrace(21, 600)
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
	if err := w.Close(1, 2); err != nil {
		t.Fatal(err)
	}
	cut := buf.Len() * 3 / 4 // inside the event section, past the header
	rd, err := NewReader(bytes.NewReader(buf.Bytes()[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	r := AsBlockSource(rd)
	blk := NewEventBlock(64)
	events := 0
	var final error
	for {
		err := r.NextBlock(blk)
		if err != nil {
			final = err
			break
		}
		events += blk.N
	}
	if events == 0 || events >= len(tr.Events) {
		t.Fatalf("decoded %d events from a stream truncated at 3/4, want some but not all %d", events, len(tr.Events))
	}
	if final != io.ErrUnexpectedEOF {
		t.Fatalf("truncation surfaced as %q, want %q", final, io.ErrUnexpectedEOF)
	}
	// The error is sticky across further calls, never softening to EOF.
	if err := r.NextBlock(blk); err != io.ErrUnexpectedEOF {
		t.Fatalf("repeated NextBlock after truncation = %v, want %v", err, io.ErrUnexpectedEOF)
	}
}
