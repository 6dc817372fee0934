package trace

import (
	"bytes"
	"testing"

	"repro/internal/callchain"
)

// FuzzReadBinary checks the binary reader — both the LPTRACE1 and the
// streaming LPTRACE2 decoder — never panics or over-allocates, and that
// anything it accepts re-serializes to a parseable trace. Run the corpus
// as a unit test, or explore with `go test -fuzz=FuzzReadBinary
// ./internal/trace`.
func FuzzReadBinary(f *testing.F) {
	// Seed with a real serialized trace and a few corruptions.
	tr := randomTrace(7, 50)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	bad := append([]byte(nil), good...)
	if len(bad) > 20 {
		bad[15] ^= 0xFF
	}
	f.Add(bad)
	f.Add([]byte("LPTRACE1\n"))
	f.Add([]byte{})

	// The same trace streamed out in the sentinel-terminated LPTRACE2
	// format, whole and truncated: mid-events, mid-trailer, and with a
	// corrupted kind byte.
	var buf2 bytes.Buffer
	w, err := NewWriter(&buf2, Meta{Program: tr.Program, Input: tr.Input}, tr.Table)
	if err != nil {
		f.Fatal(err)
	}
	for _, ev := range tr.Events {
		if err := w.Write(ev); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(tr.FunctionCalls, tr.NonHeapRefs); err != nil {
		f.Fatal(err)
	}
	good2 := buf2.Bytes()
	f.Add(good2)
	f.Add(good2[:len(good2)/2])
	f.Add(good2[:len(good2)-1]) // trailer cut off
	bad2 := append([]byte(nil), good2...)
	if len(bad2) > 40 {
		bad2[len(bad2)/2] ^= 0xFF
	}
	f.Add(bad2)
	f.Add([]byte("LPTRACE2\n"))

	// Adversarial lengths: headers that claim enormous event, function,
	// and chain counts with no bytes behind them. The reader must reject
	// these without allocating proportionally to the claim.
	f.Add([]byte("LPTRACE1\n\x00\x00\x00\x00\x00\x00\x80\x80\x80\x80\x80\x80\x80\x40"))
	f.Add([]byte("LPTRACE1\n\x00\x00\x00\x00\x80\x80\x80\x80\x80\x80\x80\x40"))
	f.Add([]byte("LPTRACE2\n\x00\x00\x00\x80\x80\x80\x80\x80\x80\x80\x40"))

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

// FuzzReadBinaryBlocks is the differential target for the batched
// Reader: on arbitrary bytes, replaying a Reader through AsBlockSource's
// adapter must be indistinguishable from replaying it through Next —
// same constructor verdict, same events in the same order, same terminal
// error text, and the same trailer metadata. A small block capacity
// forces many block boundaries, the place where the hold-the-error-back
// contract can go wrong.
func FuzzReadBinaryBlocks(f *testing.F) {
	// A trace longer than the fuzz block capacity, streamed in LPTRACE2,
	// plus the usual corruptions; and the same events in LPTRACE1, which
	// the adapter must also batch correctly.
	tr := randomTrace(13, 600)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Program: tr.Program, Input: tr.Input}, tr.Table)
	if err != nil {
		f.Fatal(err)
	}
	for _, ev := range tr.Events {
		if err := w.Write(ev); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(tr.FunctionCalls, tr.NonHeapRefs); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2]) // truncated mid-events
	f.Add(good[:len(good)-1]) // trailer cut off
	bad := append([]byte(nil), good...)
	if len(bad) > 40 {
		bad[len(bad)/2] ^= 0xFF
	}
	f.Add(bad)
	var buf1 bytes.Buffer
	if err := WriteBinary(&buf1, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf1.Bytes())
	f.Add([]byte("LPTRACE2\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sr, serr := NewReader(bytes.NewReader(data))
		br, berr := NewReader(bytes.NewReader(data))
		if (serr == nil) != (berr == nil) {
			t.Fatalf("constructor verdicts differ: %v vs %v", serr, berr)
		}
		if serr != nil {
			return // rejected cleanly, identically
		}
		var sev []Event
		var sfin error
		for {
			ev, err := sr.Next()
			if err != nil {
				sfin = err
				break
			}
			sev = append(sev, ev)
		}
		var bev []Event
		var bfin error
		bs := AsBlockSource(br)
		blk := NewEventBlock(64)
		for {
			err := bs.NextBlock(blk)
			if err != nil {
				bfin = err
				break
			}
			if blk.N == 0 {
				t.Fatal("NextBlock returned nil with an empty block")
			}
			for k := 0; k < blk.N; k++ {
				bev = append(bev, blk.Event(k))
			}
		}
		if sfin.Error() != bfin.Error() {
			t.Fatalf("terminal errors differ: scalar %q, block %q", sfin, bfin)
		}
		if len(sev) != len(bev) {
			t.Fatalf("event counts differ: scalar %d, block %d", len(sev), len(bev))
		}
		for i := range sev {
			if sev[i] != bev[i] {
				t.Fatalf("event %d differs: scalar %+v, block %+v", i, sev[i], bev[i])
			}
		}
		if sr.Meta() != br.Meta() {
			t.Fatalf("trailer metadata differs: scalar %+v, block %+v", sr.Meta(), br.Meta())
		}
	})
}

// FuzzReadText does the same for the text codec.
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
