package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

type countingWriter struct {
	w *bufio.Writer
}

func (cw countingWriter) uvarint(v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := cw.w.Write(buf[:n])
	return err
}

func (cw countingWriter) str(s string) error {
	if err := cw.uvarint(uint64(len(s))); err != nil {
		return err
	}
	_, err := cw.w.WriteString(s)
	return err
}

// WriteBinary serializes a trace in the LPTRACE2 format. It is Writer
// over the trace's events, so it refuses the events Writer refuses.
func WriteBinary(w io.Writer, tr *Trace) error {
	bw, err := NewWriter(w, Meta{Program: tr.Program, Input: tr.Input}, tr.Table)
	if err != nil {
		return err
	}
	for _, ev := range tr.Events {
		if err := bw.Write(ev); err != nil {
			return err
		}
	}
	return bw.Close(tr.FunctionCalls, tr.NonHeapRefs)
}

type countingReader struct {
	r *bufio.Reader
}

func (cr countingReader) uvarint() (uint64, error) {
	return binary.ReadUvarint(cr.r)
}

func (cr countingReader) str() (string, error) {
	n, err := cr.uvarint()
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("trace: string length %d too large", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(cr.r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// ReadBinary parses a trace written by WriteBinary or the streaming
// Writer. The trace gets a fresh callchain.Table; chain ids are
// preserved exactly. It is Collect over NewReader.
func ReadBinary(r io.Reader) (*Trace, error) {
	src, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	return Collect(src)
}

// WriteText writes a human-readable rendering of the trace, one event per
// line, for debugging and the lpgen -text mode. It is TextWriter over the
// trace's events: a leading program/input line, then
//
//	alloc <obj> size=<n> refs=<n> chain=main>parse>xmalloc
//	free <obj>
//
// and a trailing line with the workload totals.
func WriteText(w io.Writer, tr *Trace) error {
	tw, err := NewTextWriter(w, Meta{Program: tr.Program, Input: tr.Input}, tr.Table)
	if err != nil {
		return err
	}
	for _, ev := range tr.Events {
		if err := tw.Write(ev); err != nil {
			return err
		}
	}
	return tw.Close(tr.FunctionCalls, tr.NonHeapRefs)
}

// ReadText parses the text rendering produced by WriteText or
// TextWriter. It is Collect over NewTextReader.
func ReadText(r io.Reader) (*Trace, error) {
	return Collect(NewTextReader(r))
}
