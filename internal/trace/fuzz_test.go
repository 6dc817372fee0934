package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/callchain"
)

// FuzzReadBinary checks the binary reader never panics or over-allocates,
// and that anything it accepts re-serializes to a parseable trace. Run
// the corpus as a unit test, or explore with `go test
// -fuzz=FuzzReadBinary ./internal/trace`.
func FuzzReadBinary(f *testing.F) {
	// Seed with a real serialized trace: whole, truncated mid-events and
	// mid-trailer, and with a corrupted header byte and event byte.
	tr := randomTrace(7, 50)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:len(good)-1]) // trailer cut off
	for _, at := range []int{15, len(good) / 2} {
		bad := append([]byte(nil), good...)
		bad[at] ^= 0xFF
		f.Add(bad)
	}
	f.Add(good[:20]) // truncated inside the header
	f.Add([]byte("LPTRACE2\n"))
	f.Add([]byte("LPTRACE2\n\x00\x00\x00\x00\x00\x00\x00")) // the empty trace
	f.Add([]byte{})
	// Adversarial lengths: headers that claim a huge function count, a
	// huge chain count, a function name past the 1 MiB cap, and a chain
	// past 2^16 functions, with no bytes behind the claim. The reader
	// must reject these without allocating proportionally to the claim.
	f.Add([]byte("LPTRACE2\n\x00\x00\x80\x80\x80\x80\x80\x80\x80\x40"))
	f.Add([]byte("LPTRACE2\n\x00\x00\x00\x80\x80\x80\x80\x80\x80\x80\x40"))
	f.Add([]byte("LPTRACE2\n\x00\x00\x01\x81\x80\x40"))
	f.Add([]byte("LPTRACE2\n\x00\x00\x00\x01\x81\x80\x04"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		assertNonNegative(t, got)
		// Accepted input must round-trip.
		var out bytes.Buffer
		if err := WriteBinary(&out, got); err != nil {
			t.Fatalf("accepted trace fails to serialize: %v", err)
		}
		if _, err := ReadBinary(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-serialized trace fails to parse: %v", err)
		}
	})
}

// assertNonNegative fails if an accepted trace holds an event no trace
// can contain: a negative size or refs count.
func assertNonNegative(t *testing.T, tr *Trace) {
	t.Helper()
	for i, ev := range tr.Events {
		if ev.Size < 0 || ev.Refs < 0 {
			t.Fatalf("accepted event %d has size %d, refs %d", i, ev.Size, ev.Refs)
		}
	}
}

// writeWithKinds encodes tr with the streaming Writer and returns the
// bytes and the offset of each event's kind byte.
func writeWithKinds(t testing.TB, tr *Trace) ([]byte, []int) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Program: tr.Program, Input: tr.Input}, tr.Table)
	if err != nil {
		t.Fatal(err)
	}
	kindAt := make([]int, len(tr.Events))
	for i, ev := range tr.Events {
		kindAt[i] = buf.Len() + w.bw.Buffered()
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(tr.FunctionCalls, tr.NonHeapRefs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), kindAt
}

// drain reads src to its terminal error in blocks of n slots, checking
// the Source contract on the way: a nil error comes with events, an
// error with none.
func drain(t *testing.T, src Source, n int) ([]Event, error) {
	t.Helper()
	blk := NewEventBlock(n)
	var evs []Event
	for {
		err := src.NextBlock(blk)
		if err != nil {
			if blk.N != 0 {
				t.Fatalf("NextBlock returned %v with %d events", err, blk.N)
			}
			return evs, err
		}
		if blk.N == 0 {
			t.Fatal("NextBlock returned nil with an empty block")
		}
		for k := 0; k < blk.N; k++ {
			evs = append(evs, blk.Event(k))
		}
	}
}

// sameDrains drains a in 1-slot blocks and b in 64-slot blocks — two
// sources over the same bytes — and requires the same events, chain
// names, terminal error text and metadata. A 1-slot block puts a block
// boundary after every event, the place where holding an error back
// can go wrong.
func sameDrains(t *testing.T, a, b Source) {
	t.Helper()
	ea, erra := drain(t, a, 1)
	eb, errb := drain(t, b, 64)
	if erra.Error() != errb.Error() {
		t.Fatalf("terminal errors differ: 1-slot %q, 64-slot %q", erra, errb)
	}
	if len(ea) != len(eb) {
		t.Fatalf("event counts differ: 1-slot %d, 64-slot %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d differs: 1-slot %+v, 64-slot %+v", i, ea[i], eb[i])
		}
		if na, nb := a.Table().String(ea[i].Chain), b.Table().String(eb[i].Chain); na != nb {
			t.Fatalf("event %d chain differs: 1-slot %q, 64-slot %q", i, na, nb)
		}
	}
	if a.Meta() != b.Meta() {
		t.Fatalf("metadata differs: 1-slot %+v, 64-slot %+v", a.Meta(), b.Meta())
	}
}

// FuzzReadBinaryBlocks is the block-size differential for the binary
// Reader: on arbitrary bytes, a drain in 1-slot blocks and a drain in
// 64-slot blocks must be indistinguishable — same constructor verdict,
// same events in the same order, same terminal error text, and the same
// trailer metadata.
func FuzzReadBinaryBlocks(f *testing.F) {
	// A trace longer than the 64-slot block, plus the usual corruptions
	// and a bad kind byte at event 100, inside the second 64-slot block.
	tr := randomTrace(13, 600)
	good, kindAt := writeWithKinds(f, tr)
	f.Add(good)
	f.Add(good[:len(good)/2]) // truncated mid-events
	f.Add(good[:len(good)-1]) // trailer cut off
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0xFF
	f.Add(bad)
	badKind := append([]byte(nil), good...)
	badKind[kindAt[100]] = 7
	f.Add(badKind)
	f.Add([]byte("LPTRACE2\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, aerr := NewReader(bytes.NewReader(data))
		b, berr := NewReader(bytes.NewReader(data))
		if (aerr == nil) != (berr == nil) {
			t.Fatalf("constructor verdicts differ: %v vs %v", aerr, berr)
		}
		if aerr != nil {
			return // rejected cleanly, identically
		}
		sameDrains(t, a, b)
	})
}

// FuzzReadText does the same for the text codec: the TextReader drains
// alike in 1-slot and 64-slot blocks, and any trace ReadText accepts
// re-serializes to a parseable one.
func FuzzReadText(f *testing.F) {
	tr := randomTrace(9, 30)
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("# program=p input=i calls=1 nonheaprefs=2\nalloc 0 size=8 refs=0 chain=a>b\nfree 0\n")
	f.Add("alloc x")
	f.Add("")

	// The streaming text rendering: leading program/input line, trailing
	// totals line, and a truncation that loses the trailer.
	var sbuf bytes.Buffer
	sw, err := NewTextWriter(&sbuf, Meta{Program: tr.Program, Input: tr.Input}, tr.Table)
	if err != nil {
		f.Fatal(err)
	}
	for _, ev := range tr.Events {
		if err := sw.Write(ev); err != nil {
			f.Fatal(err)
		}
	}
	if err := sw.Close(7, 8); err != nil {
		f.Fatal(err)
	}
	streamed := sbuf.String()
	f.Add(streamed)
	f.Add(streamed[:len(streamed)/2])

	f.Fuzz(func(t *testing.T, data string) {
		// The table grows as the reader streams, so sameDrains also
		// compares the rendered chain names.
		sameDrains(t, NewTextReader(strings.NewReader(data)), NewTextReader(strings.NewReader(data)))
		got, err := ReadText(bytes.NewReader([]byte(data)))
		if err != nil {
			return
		}
		assertNonNegative(t, got)
		var out bytes.Buffer
		if err := WriteText(&out, got); err != nil {
			t.Fatalf("accepted trace fails to serialize: %v", err)
		}
		if _, err := ReadText(&out); err != nil {
			t.Fatalf("re-serialized trace fails to parse: %v", err)
		}
	})
}

// FuzzWriters drives both streaming writers with events built from the
// fuzz bytes, four per event: any kind byte, an object id, a signed size,
// and one byte split into a chain id (past the three-chain table from 3
// up) and a signed reference count. Each writer must either refuse the
// stream or produce one its streaming reader decodes back to the same
// events and metadata; both must refuse the same streams, and neither may
// panic. A decoded free carries only its object id, and text chains are
// interned afresh, so they compare by rendered name.
func FuzzWriters(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := callchain.NewTable()
		tb.InternNames("main", "a")
		tb.InternNames("main", "b", "c")
		var evs []Event
		for ; len(data) >= 4; data = data[4:] {
			evs = append(evs, Event{
				Kind:  Kind(data[0]),
				Obj:   ObjectID(data[1]),
				Size:  int64(int8(data[2])) * 8,
				Chain: callchain.ChainID(data[3] & 7),
				Refs:  int64(int8(data[3])) >> 3,
			})
		}
		meta := Meta{Program: "p", Input: "i", FunctionCalls: 5, NonHeapRefs: 6}
		write := func(w interface {
			Write(Event) error
			Close(int64, int64) error
		}) error {
			for _, ev := range evs {
				if err := w.Write(ev); err != nil {
					return err
				}
			}
			return w.Close(meta.FunctionCalls, meta.NonHeapRefs)
		}
		var bin, txt bytes.Buffer
		bw, err := NewWriter(&bin, meta, tb)
		if err != nil {
			t.Fatal(err)
		}
		tw, err := NewTextWriter(&txt, meta, tb)
		if err != nil {
			t.Fatal(err)
		}
		berr, terr := write(bw), write(tw)
		if (berr == nil) != (terr == nil) {
			t.Fatalf("writers disagree: Writer %v, TextWriter %v", berr, terr)
		}
		if berr != nil {
			return // refused cleanly by both
		}
		rd, err := NewReader(&bin)
		if err != nil {
			t.Fatalf("Writer's header does not decode: %v", err)
		}
		for _, c := range []struct {
			name string
			src  Source
		}{{"Writer", rd}, {"TextWriter", NewTextReader(&txt)}} {
			got, err := Collect(c.src)
			if err != nil {
				t.Fatalf("%s's stream does not decode: %v", c.name, err)
			}
			m := Meta{Program: got.Program, Input: got.Input, FunctionCalls: got.FunctionCalls, NonHeapRefs: got.NonHeapRefs}
			if m != meta {
				t.Fatalf("%s: metadata %+v, wrote %+v", c.name, m, meta)
			}
			if len(got.Events) != len(evs) {
				t.Fatalf("%s: %d events decoded, %d written", c.name, len(got.Events), len(evs))
			}
			for i, want := range evs {
				ev := got.Events[i]
				if want.Kind == KindFree {
					want = Event{Kind: KindFree, Obj: want.Obj}
				}
				if got.Table.String(ev.Chain) != tb.String(want.Chain) {
					t.Fatalf("%s: event %d chain %q, wrote %q", c.name, i, got.Table.String(ev.Chain), tb.String(want.Chain))
				}
				ev.Chain, want.Chain = 0, 0
				if ev != want {
					t.Fatalf("%s: event %d decoded as %+v, wrote %+v", c.name, i, ev, want)
				}
			}
		}
	})
}
