package trace

import (
	"bytes"
	"testing"
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
