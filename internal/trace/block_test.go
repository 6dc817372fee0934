package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/callchain"
)

// stepSource is a per-event producer batched through fillBlock, as
// Reader and TextReader are. Its next yields tr's events but returns err
// in place of event n — io.EOF at n == len(tr.Events) is a clean end —
// and then, like a decoder resuming on the bytes past a bad event, goes
// on with the events after it.
type stepSource struct {
	tr  *Trace
	n   int
	err error
	i   int
	end error
}

func (s *stepSource) Meta() Meta                    { return Meta{Program: s.tr.Program, Input: s.tr.Input} }
func (s *stepSource) Table() *callchain.Table       { return s.tr.Table }
func (s *stepSource) NextBlock(b *EventBlock) error { return fillBlock(b, &s.end, s.next) }

func (s *stepSource) next() (Event, error) {
	i := s.i
	s.i++
	switch {
	case i == s.n:
		return Event{}, s.err
	case i >= len(s.tr.Events):
		return Event{}, io.EOF
	}
	return s.tr.Events[i], nil
}

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
	src := &stepSource{tr: tr, n: len(tr.Events), err: io.EOF}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, tr, got)
	// The clean end sticks too.
	blk := NewEventBlock(0)
	if err := src.NextBlock(blk); err != io.EOF || blk.N != 0 {
		t.Fatalf("NextBlock after EOF = %d events, %v; want 0, io.EOF", blk.N, err)
	}
}

// The batched contract: a terminal error after a partial block is held
// back, so consumers see every event first and the error on the
// following call — and on every call after it, never the events a
// resumed decoder would produce.
func TestBlockAdapterHoldsErrorAfterPartialBlock(t *testing.T) {
	tr := randomTrace(10, DefaultBlockLen+137)
	boom := errors.New("boom")
	src := &stepSource{tr: tr, n: DefaultBlockLen + 37, err: boom}

	blk := NewEventBlock(0)
	if err := src.NextBlock(blk); err != nil || blk.N != DefaultBlockLen {
		t.Fatalf("block 1: n=%d err=%v, want %d/nil", blk.N, err, DefaultBlockLen)
	}
	if err := src.NextBlock(blk); err != nil || blk.N != 37 {
		t.Fatalf("block 2: n=%d err=%v, want 37/nil (error held back)", blk.N, err)
	}
	for call := 3; call <= 4; call++ {
		if err := src.NextBlock(blk); err != boom || blk.N != 0 {
			t.Fatalf("block %d: n=%d err=%v, want 0/boom", call, blk.N, err)
		}
	}
}

// An error landing exactly on a block boundary is returned immediately
// with an empty block — never with events alongside it — and again on
// the next call.
func TestBlockAdapterErrorOnBoundary(t *testing.T) {
	tr := randomTrace(11, DefaultBlockLen+100)
	boom := errors.New("boom")
	src := &stepSource{tr: tr, n: DefaultBlockLen, err: boom}

	blk := NewEventBlock(0)
	if err := src.NextBlock(blk); err != nil || blk.N != DefaultBlockLen {
		t.Fatalf("block 1: n=%d err=%v, want %d/nil", blk.N, err, DefaultBlockLen)
	}
	for call := 2; call <= 3; call++ {
		if err := src.NextBlock(blk); err != boom || blk.N != 0 {
			t.Fatalf("block %d: n=%d err=%v, want 0/boom", call, blk.N, err)
		}
	}
}

// TestReaderNextBlock drains a Reader through Collect: every event and
// the trailer arrive, and the drained stream keeps answering io.EOF.
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
	if err := r.NextBlock(blk); err != io.EOF {
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

	// Reset rewinds for another replay, and NextBlock repoints at the
	// column storage rather than copying.
	cs.Reset()
	blk := NewEventBlock(0)
	if err := cs.NextBlock(blk); err != nil {
		t.Fatal(err)
	}
	if &blk.Kinds[0] != &cs.cols.Kinds[0] {
		t.Fatal("ColumnsSource.NextBlock copied instead of repointing")
	}
}

// TestReaderNextBlockTruncatedMidBlock pins the error path of both
// readers on damaged streams: a binary stream cut off in the middle of
// the event section, a binary stream whose event 100 has kind byte 7,
// and a text stream whose event 100 line reads "bogus 1". Every event
// before the damage is delivered first, then the decode error; a
// truncation surfaces as exactly io.ErrUnexpectedEOF — not io.EOF, which
// would let a consumer mistake a torn stream for a complete one. The
// error is terminal: every further call returns it again with an empty
// block, never events decoded from the bytes past it.
func TestReaderNextBlockTruncatedMidBlock(t *testing.T) {
	tr := randomTrace(21, 600)
	bin, kindAt := writeWithKinds(t, tr)
	badKind := append([]byte(nil), bin...)
	badKind[kindAt[100]] = 7
	var text bytes.Buffer
	if err := WriteText(&text, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(text.String(), "\n")
	lines[1+100] = "bogus 1" // lines[0] is the metadata line
	badText := strings.Join(lines, "\n")

	cases := []struct {
		name   string
		open   func() (Source, error)
		events int // events before the damage; -1 for some but not all
		want   string
	}{
		{"binary truncated", func() (Source, error) {
			return NewReader(bytes.NewReader(bin[:len(bin)*3/4])) // past the header
		}, -1, io.ErrUnexpectedEOF.Error()},
		{"binary bad kind", func() (Source, error) {
			return NewReader(bytes.NewReader(badKind))
		}, 100, "trace: event 100: bad kind 7"},
		{"text bad line", func() (Source, error) {
			return NewTextReader(strings.NewReader(badText)), nil
		}, 100, `trace: line 102: unknown event "bogus"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src, err := c.open()
			if err != nil {
				t.Fatal(err)
			}
			got, final := drain(t, src, 64)
			if c.events < 0 && (len(got) == 0 || len(got) >= len(tr.Events)) {
				t.Fatalf("decoded %d events, want some but not all %d", len(got), len(tr.Events))
			}
			if c.events >= 0 && len(got) != c.events {
				t.Fatalf("decoded %d events, want %d", len(got), c.events)
			}
			for i, ev := range got {
				want := tr.Events[i]
				if src.Table().String(ev.Chain) != tr.Table.String(want.Chain) {
					t.Fatalf("event %d chain %q, want %q", i, src.Table().String(ev.Chain), tr.Table.String(want.Chain))
				}
				ev.Chain, want.Chain = 0, 0
				if ev != want {
					t.Fatalf("event %d = %+v, want %+v", i, ev, want)
				}
			}
			if final.Error() != c.want {
				t.Fatalf("stream ended with %q, want %q", final, c.want)
			}
			blk := NewEventBlock(64)
			for call := 1; call <= 3; call++ {
				if err := src.NextBlock(blk); err != final || blk.N != 0 {
					t.Fatalf("call %d after the error: %d events, %v; want 0, %v", call, blk.N, err, final)
				}
			}
		})
	}
}
