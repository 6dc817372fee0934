package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/callchain"
)

// corrupt truncates or flips a serialized trace at various points and
// checks the reader fails cleanly instead of panicking or accepting it.
func TestReadBinaryTruncations(t *testing.T) {
	tr := buildTrace(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, n := range []int{10, 12, 15, 20, 30, len(data) / 2, len(data) - 1} {
		if n >= len(data) {
			continue
		}
		if _, err := ReadBinary(bytes.NewReader(data[:n])); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
}

func TestReadBinaryBadReferences(t *testing.T) {
	// Hand-build a header whose chain references a function beyond the
	// table: magic, empty program/input, 1 func "a", 1 chain of length 1
	// referencing func id 7.
	var buf bytes.Buffer
	buf.WriteString("LPTRACE2\n")
	buf.WriteByte(0) // program ""
	buf.WriteByte(0) // input ""
	buf.WriteByte(1) // numFuncs
	buf.WriteByte(1) // len "a"
	buf.WriteByte('a')
	buf.WriteByte(1) // numChains
	buf.WriteByte(1) // chain length
	buf.WriteByte(7) // bad func id
	if _, err := ReadBinary(&buf); err == nil || !strings.Contains(err.Error(), "unknown function") {
		t.Fatalf("bad function reference not rejected: %v", err)
	}
}

func TestReadBinaryBadEventChain(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("LPTRACE2\n")
	buf.WriteByte(0)               // program
	buf.WriteByte(0)               // input
	buf.WriteByte(0)               // numFuncs
	buf.WriteByte(0)               // numChains
	buf.WriteByte(byte(KindAlloc)) // kind
	buf.WriteByte(0)               // obj
	buf.WriteByte(8)               // size
	buf.WriteByte(9)               // chain id 9: unknown
	buf.WriteByte(0)               // refs
	buf.WriteByte(0)               // sentinel
	buf.WriteByte(0)               // calls
	buf.WriteByte(0)               // refs
	if _, err := ReadBinary(&buf); err == nil || !strings.Contains(err.Error(), "unknown chain") {
		t.Fatalf("bad chain reference not rejected: %v", err)
	}
}

func TestWriteTextMetadataRoundTrip(t *testing.T) {
	tb := callchain.NewTable()
	tr := &Trace{
		Program:       "with spaces? no",
		Input:         "x",
		Table:         tb,
		FunctionCalls: 42,
		NonHeapRefs:   7,
	}
	// Program names with spaces would break the text header; the codec
	// is for identifiers, so just verify identifier-style metadata.
	tr.Program = "prog"
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.FunctionCalls != 42 || got.NonHeapRefs != 7 || got.Program != "prog" {
		t.Fatalf("metadata lost: %+v", got)
	}
}

func TestKindString(t *testing.T) {
	if KindAlloc.String() != "alloc" || KindFree.String() != "free" {
		t.Fatal("kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind has empty string")
	}
}

func TestValidateOK(t *testing.T) {
	tr := buildTrace(t)
	if err := Validate(tr); err != nil {
		t.Fatal(err)
	}
}

// TestReadersRejectHostileFields feeds both readers field values no trace
// can contain — a size or refs count that only decodes as negative, and
// non-integer metadata — and checks each is rejected with an error that
// names the event or line, while zero sizes stay legal. The writers,
// streaming and batch, refuse the same events and an unknown kind, so
// nothing they emit is unreadable.
func TestReadersRejectHostileFields(t *testing.T) {
	// binaryAlloc is an LPTRACE2 stream with one function "f", one chain
	// [f], one good alloc, then one alloc with the given size and refs.
	binaryAlloc := func(size, refs uint64) []byte {
		b := []byte("LPTRACE2\n\x00\x00\x01\x01f\x01\x01\x00")
		b = append(b, byte(KindAlloc), 0, 8, 1, 0)
		b = append(b, byte(KindAlloc), 1)
		b = binary.AppendUvarint(b, size)
		b = append(b, 1)
		b = binary.AppendUvarint(b, refs)
		return append(b, 0, 0, 0)
	}
	cases := []struct {
		name, format string
		data         []byte
		want         string // error substring; "" means accepted
	}{
		{"binary size 2^63", "binary", binaryAlloc(1<<63, 0), "event 1: negative size"},
		{"binary size max", "binary", binaryAlloc(math.MaxUint64, 0), "event 1: negative size"},
		{"binary refs 2^63", "binary", binaryAlloc(8, 1<<63), "event 1: negative refs"},
		{"binary zero size", "binary", binaryAlloc(0, 0), ""},
		{"text negative size", "text", []byte("alloc 0 size=8 refs=0 chain=f\nalloc 1 size=-8 refs=0 chain=f\n"), "line 2: negative size"},
		{"text negative refs", "text", []byte("alloc 0 size=8 refs=-3 chain=f\n"), "line 1: negative refs"},
		{"text calls not an integer", "text", []byte("# program=p calls=abc\nalloc 0 size=8 refs=0 chain=f\n"), "line 1: bad calls value"},
		{"text nonheaprefs not an integer", "text", []byte("alloc 0 size=8 refs=0 chain=f\n\n# nonheaprefs=1.5\n"), "line 3: bad nonheaprefs value"},
		{"text zero size", "text", []byte("# calls=2 nonheaprefs=3\nalloc 0 size=0 refs=0 chain=f\n"), ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			if c.format == "binary" {
				_, err = ReadBinary(bytes.NewReader(c.data))
			} else {
				_, err = ReadText(bytes.NewReader(c.data))
			}
			if c.want == "" {
				if err != nil {
					t.Fatalf("legal input rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
		})
	}

	tb := callchain.NewTable()
	chain := tb.InternNames("f")
	hostile := []Event{
		{Kind: KindAlloc, Obj: 1, Size: -8, Chain: chain},
		{Kind: KindAlloc, Obj: 1, Size: 8, Chain: chain, Refs: -3},
		{Kind: KindAlloc, Obj: 1, Size: 8, Chain: 7},
	}
	for _, ev := range hostile {
		w, err := NewWriter(io.Discard, Meta{}, tb)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(ev); err == nil {
			t.Errorf("Writer accepted %+v", ev)
		}
		tw, err := NewTextWriter(io.Discard, Meta{}, tb)
		if err != nil {
			t.Fatal(err)
		}
		if err := tw.Write(ev); err == nil {
			t.Errorf("TextWriter accepted %+v", ev)
		}
	}
	for _, ev := range append(hostile, Event{Kind: Kind(9), Obj: 1}) {
		tr := &Trace{Table: tb, Events: []Event{ev}}
		if err := WriteBinary(io.Discard, tr); err == nil {
			t.Errorf("WriteBinary accepted %+v", ev)
		}
		if err := WriteText(io.Discard, tr); err == nil {
			t.Errorf("WriteText accepted %+v", ev)
		}
	}
}
