package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// The binary trace format, all integers unsigned varints unless noted:
//
//	magic        "LPTRACE1\n"
//	program      string (varint length + bytes)
//	input        string
//	funcCalls    varint
//	nonHeapRefs  varint
//	numFuncs     varint, then each function name as a string
//	numChains    varint, then each chain as varint length + varint func ids
//	             (chain 0, the empty chain, is implicit and not written)
//	numEvents    varint, then each event:
//	             kind byte; alloc: obj, size, chain, refs; free: obj
const binaryMagic = "LPTRACE1\n"

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

// WriteBinary serializes a trace in the compact LPTRACE1 format. It
// refuses the events the streaming Writer refuses.
func WriteBinary(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := countingWriter{bw}
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	if err := cw.str(tr.Program); err != nil {
		return err
	}
	if err := cw.str(tr.Input); err != nil {
		return err
	}
	if err := cw.uvarint(uint64(tr.FunctionCalls)); err != nil {
		return err
	}
	if err := cw.uvarint(uint64(tr.NonHeapRefs)); err != nil {
		return err
	}
	if err := writeTable(cw, tr.Table); err != nil {
		return err
	}
	if err := cw.uvarint(uint64(len(tr.Events))); err != nil {
		return err
	}
	// LPTRACE1 encodes events exactly as LPTRACE2 does, so the streaming
	// Writer's encoder (and its checks) serves both formats.
	ew := &Writer{bw: bw, cw: cw, chains: tr.Table.NumChains()}
	for _, ev := range tr.Events {
		if err := ew.Write(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
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

// ReadBinary parses a trace previously written by WriteBinary (or by the
// streaming Writer — both magics are accepted). The trace gets a fresh
// callchain.Table; chain ids are preserved exactly. It is Collect over
// NewReader: the capacity hint is clamped, so a forged event count can
// no longer force a proportional allocation up front.
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
