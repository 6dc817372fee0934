package table

import (
	"errors"
	"io"
	"strings"
	"testing"
)

func TestRender(t *testing.T) {
	tb := New("Table X", "Program", "Bytes", "Pct")
	tb.Row("cfrac", 65000000, 79.0)
	tb.Row("gawk", 167000000, 99.3)
	out := tb.String()
	if !strings.Contains(out, "Table X") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "cfrac") || !strings.Contains(out, "99.3") {
		t.Errorf("cells missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: every data line has the same width as the header.
	if len(lines[3]) != len(lines[4]) {
		t.Errorf("row widths differ:\n%s", out)
	}
}

func TestIsNumeric(t *testing.T) {
	for _, s := range []string{"123", "-4.5", "99.3%", "208K", "", "-",
		"+7", "1.5e3", "3.2M", "1.2"} {
		if !isNumeric(s) {
			t.Errorf("isNumeric(%q) = false", s)
		}
	}
	for _, s := range []string{"cfrac", "1a", "x%",
		"1.2.3",          // second dot
		"1-2",            // sign not at position 0
		"4+5",            // ditto for plus
		"next-fit (A4')", // hyphenated label must stay left-aligned
	} {
		if isNumeric(s) {
			t.Errorf("isNumeric(%q) = true", s)
		}
	}
}

// failAfterWriter accepts n writes, then fails every subsequent one.
type failAfterWriter struct {
	n      int
	writes int
	bytes  int
}

var errSink = errors.New("sink failed")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.n {
		return 0, errSink
	}
	w.bytes += len(p)
	return len(p), nil
}

// TestWriteToPropagatesRowErrors drives a failing writer through every
// line of a table — title, header, rule, each row, trailing blank — and
// checks the error surfaces from exactly the line that hit it, with the
// byte count reflecting only what was actually written.
func TestWriteToPropagatesRowErrors(t *testing.T) {
	build := func() *Table {
		tb := New("T", "A", "B")
		tb.RowStrings("r1", "1")
		tb.RowStrings("r2", "2")
		tb.RowStrings("r3", "3")
		return tb
	}
	full := build().String()
	totalLines := strings.Count(full, "\n") // title + header + rule + 3 rows + blank

	for fail := 1; fail <= totalLines; fail++ {
		w := &failAfterWriter{n: fail - 1}
		n, err := build().WriteTo(w)
		if !errors.Is(err, errSink) {
			t.Fatalf("fail at line %d: err = %v, want errSink", fail, err)
		}
		if n != int64(w.bytes) {
			t.Errorf("fail at line %d: WriteTo reported %d bytes, writer saw %d", fail, n, w.bytes)
		}
		if w.writes != fail {
			t.Errorf("fail at line %d: WriteTo kept writing after the error (%d writes)", fail, w.writes)
		}
	}

	// And a clean writer reports the full byte count.
	w := &failAfterWriter{n: totalLines}
	n, err := build().WriteTo(w)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(full)) || w.bytes != len(full) {
		t.Errorf("clean write: n=%d writer=%d want %d", n, w.bytes, len(full))
	}
}

// shortWriter reports fewer bytes than given without an error — the
// misbehaving-writer case io.ErrShortWrite exists for.
type shortWriter struct{ writes int }

func (w *shortWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes == 2 { // drop part of the header line
		return len(p) / 2, nil
	}
	return len(p), nil
}

func TestWriteToDetectsShortWrite(t *testing.T) {
	tb := New("T", "A")
	tb.RowStrings("x")
	if _, err := tb.WriteTo(&shortWriter{}); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("err = %v, want io.ErrShortWrite", err)
	}
}

func TestStringMatchesWriteTo(t *testing.T) {
	// String() renders via WriteTo, so the streaming rewrite must not
	// change the rendered bytes.
	tb := New("T", "A")
	tb.RowStrings("x")
	var buf strings.Builder
	if _, err := tb.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != tb.String() {
		t.Fatal("String() and WriteTo disagree")
	}
}

func TestRowStrings(t *testing.T) {
	tb := New("", "A", "B")
	tb.RowStrings("x", "y")
	if !strings.Contains(tb.String(), "x") {
		t.Fatal("RowStrings cell missing")
	}
}
