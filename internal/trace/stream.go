package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/callchain"
)

// The LPTRACE2 binary format, all integers unsigned varints unless
// noted. The event list ends with a sentinel and the workload totals —
// unknown until generation finishes — follow it as a trailer, so a
// writer needs neither up front and both ends stream:
//
//	magic        "LPTRACE2\n"
//	program      string (varint length + bytes)
//	input        string
//	numFuncs     varint, then each function name as a string
//	numChains    varint, then each chain as varint length + varint func ids
//	             (chain 0, the empty chain, is implicit and not written)
//	events       each: kind byte; alloc: obj, size, chain, refs; free: obj
//	sentinel     0x00 (an impossible kind byte)
//	funcCalls    varint
//	nonHeapRefs  varint
const binaryMagic2 = "LPTRACE2\n"

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a header,
// an event, or before a required trailer, running out of bytes is a
// truncation error, never the clean end-of-stream that a Source signals
// with io.EOF.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// writeTable serializes the function and chain tables of the header.
func writeTable(cw countingWriter, tb *callchain.Table) error {
	nf := tb.NumFuncs()
	if err := cw.uvarint(uint64(nf)); err != nil {
		return err
	}
	for i := 0; i < nf; i++ {
		if err := cw.str(tb.FuncName(callchain.FuncID(i))); err != nil {
			return err
		}
	}
	nc := tb.NumChains()
	if err := cw.uvarint(uint64(nc - 1)); err != nil {
		return err
	}
	for i := 1; i < nc; i++ {
		fs := tb.Funcs(callchain.ChainID(i))
		if err := cw.uvarint(uint64(len(fs))); err != nil {
			return err
		}
		for _, f := range fs {
			if err := cw.uvarint(uint64(f)); err != nil {
				return err
			}
		}
	}
	return nil
}

// readTable decodes the header's function and chain tables into a fresh
// table, preserving ids exactly.
func readTable(cr countingReader) (*callchain.Table, error) {
	tb := callchain.NewTable()
	nf, err := cr.uvarint()
	if err != nil {
		return nil, noEOF(err)
	}
	for i := uint64(0); i < nf; i++ {
		name, err := cr.str()
		if err != nil {
			return nil, noEOF(err)
		}
		if got := tb.Func(name); uint64(got) != i {
			return nil, fmt.Errorf("trace: duplicate function name %q in table", name)
		}
	}
	nc, err := cr.uvarint()
	if err != nil {
		return nil, noEOF(err)
	}
	for i := uint64(0); i < nc; i++ {
		cl, err := cr.uvarint()
		if err != nil {
			return nil, noEOF(err)
		}
		if cl > 1<<16 {
			return nil, fmt.Errorf("trace: chain length %d too large", cl)
		}
		fs := make([]callchain.FuncID, cl)
		for j := range fs {
			v, err := cr.uvarint()
			if err != nil {
				return nil, noEOF(err)
			}
			if v >= nf {
				return nil, fmt.Errorf("trace: chain references unknown function %d", v)
			}
			fs[j] = callchain.FuncID(v)
		}
		if got := tb.Intern(fs); uint64(got) != i+1 {
			return nil, fmt.Errorf("trace: duplicate chain %d in table", i+1)
		}
	}
	return tb, nil
}

// Reader is a Source decoding a binary trace incrementally: the header
// (metadata plus the function and chain tables) is parsed eagerly by
// NewReader, then events are decoded one at a time into the caller's
// block, so memory held is the table plus the read buffer, independent
// of trace length.
type Reader struct {
	cr   countingReader
	meta Meta
	tb   *callchain.Table
	i    uint64 // events decoded so far
	end  error  // the error that ended the stream (fillBlock)
}

// NewReader parses an LPTRACE2 header from r and returns a Source
// streaming its events.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	cr := countingReader{br}
	magic := make([]byte, len(binaryMagic2))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != binaryMagic2 {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	rd := &Reader{cr: cr}
	var err error
	if rd.meta.Program, err = cr.str(); err != nil {
		return nil, noEOF(err)
	}
	if rd.meta.Input, err = cr.str(); err != nil {
		return nil, noEOF(err)
	}
	if rd.tb, err = readTable(cr); err != nil {
		return nil, err
	}
	return rd, nil
}

// Meta returns the trace metadata. The workload totals live in a
// trailer, so FunctionCalls and NonHeapRefs are zero until NextBlock has
// returned io.EOF.
func (r *Reader) Meta() Meta { return r.meta }

// Table returns the decoded interning table; chain ids are preserved
// exactly as written.
func (r *Reader) Table() *callchain.Table { return r.tb }

// NextBlock implements Source. io.EOF marks the clean end of the stream,
// after the sentinel and trailer; a stream that ends anywhere else
// yields io.ErrUnexpectedEOF.
func (r *Reader) NextBlock(b *EventBlock) error { return fillBlock(b, &r.end, r.next) }

// next decodes one event, or reads the trailer at the sentinel.
func (r *Reader) next() (Event, error) {
	kb, err := r.cr.r.ReadByte()
	if err != nil {
		return Event{}, noEOF(err)
	}
	if kb == 0 {
		// Sentinel: the trailer completes the metadata.
		fc, err := r.cr.uvarint()
		if err != nil {
			return Event{}, noEOF(err)
		}
		nhr, err := r.cr.uvarint()
		if err != nil {
			return Event{}, noEOF(err)
		}
		r.meta.FunctionCalls = int64(fc)
		r.meta.NonHeapRefs = int64(nhr)
		return Event{}, io.EOF
	}
	i := r.i
	r.i++
	ev := Event{Kind: Kind(kb)}
	obj, err := r.cr.uvarint()
	if err != nil {
		return Event{}, noEOF(err)
	}
	ev.Obj = ObjectID(obj)
	switch ev.Kind {
	case KindAlloc:
		sz, err := r.cr.uvarint()
		if err != nil {
			return Event{}, noEOF(err)
		}
		ch, err := r.cr.uvarint()
		if err != nil {
			return Event{}, noEOF(err)
		}
		if ch >= uint64(r.tb.NumChains()) {
			return Event{}, fmt.Errorf("trace: event %d references unknown chain %d", i, ch)
		}
		refs, err := r.cr.uvarint()
		if err != nil {
			return Event{}, noEOF(err)
		}
		ev.Size = int64(sz)
		ev.Chain = callchain.ChainID(ch)
		ev.Refs = int64(refs)
		if err := checkAlloc(ev); err != nil {
			return Event{}, fmt.Errorf("trace: event %d: %w", i, err)
		}
	case KindFree:
	default:
		return Event{}, fmt.Errorf("trace: event %d: bad kind %d", i, kb)
	}
	return ev, nil
}

// Writer encodes a trace incrementally in the LPTRACE2 format: NewWriter
// emits the header, Write emits one event at a time, Close emits the
// sentinel and the metadata trailer. Nothing is retained between calls
// beyond the output buffer, so writing is constant-memory in trace
// length. WriteBinary is Writer over a materialized trace.
type Writer struct {
	bw     *bufio.Writer
	cw     countingWriter
	chains int // chain count of the header's table
	closed bool
}

// NewWriter writes the LPTRACE2 header — magic, program, input, and the
// function and chain tables from tb — and returns a Writer for the event
// stream. The table must already contain every chain the events will
// reference (the synth generators intern all sites before emitting, and
// re-encoded streams carry their table up front); Write refuses any
// other chain id, as the reader would.
func NewWriter(w io.Writer, meta Meta, tb *callchain.Table) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := countingWriter{bw}
	if _, err := bw.WriteString(binaryMagic2); err != nil {
		return nil, err
	}
	if err := cw.str(meta.Program); err != nil {
		return nil, err
	}
	if err := cw.str(meta.Input); err != nil {
		return nil, err
	}
	if err := writeTable(cw, tb); err != nil {
		return nil, err
	}
	return &Writer{bw: bw, cw: cw, chains: tb.NumChains()}, nil
}

// checkWrite rejects an event its reader would refuse: an unknown kind,
// a negative size or reference count, or a chain id past the nChains
// chains of the writer's table.
func checkWrite(ev Event, nChains int) error {
	switch ev.Kind {
	case KindAlloc:
		if err := checkAlloc(ev); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if uint64(ev.Chain) >= uint64(nChains) {
			return fmt.Errorf("trace: unknown chain %d", ev.Chain)
		}
		return nil
	case KindFree:
		return nil
	default:
		return fmt.Errorf("trace: bad event kind %d", ev.Kind)
	}
}

// Write encodes one event.
func (w *Writer) Write(ev Event) error {
	if w.closed {
		return fmt.Errorf("trace: write after Close")
	}
	if err := checkWrite(ev, w.chains); err != nil {
		return err
	}
	if err := w.bw.WriteByte(byte(ev.Kind)); err != nil {
		return err
	}
	if err := w.cw.uvarint(uint64(ev.Obj)); err != nil {
		return err
	}
	if ev.Kind == KindAlloc {
		if err := w.cw.uvarint(uint64(ev.Size)); err != nil {
			return err
		}
		if err := w.cw.uvarint(uint64(ev.Chain)); err != nil {
			return err
		}
		if err := w.cw.uvarint(uint64(ev.Refs)); err != nil {
			return err
		}
	}
	return nil
}

// Close terminates the event stream with the sentinel, writes the
// workload totals as the trailer, and flushes. The totals are parameters
// because a streaming producer only knows them once generation is done.
func (w *Writer) Close(funcCalls, nonHeapRefs int64) error {
	if w.closed {
		return fmt.Errorf("trace: double Close")
	}
	w.closed = true
	if err := w.bw.WriteByte(0); err != nil {
		return err
	}
	if err := w.cw.uvarint(uint64(funcCalls)); err != nil {
		return err
	}
	if err := w.cw.uvarint(uint64(nonHeapRefs)); err != nil {
		return err
	}
	return w.bw.Flush()
}

// TextWriter renders the text format as a stream: a leading metadata
// line, one event per line, and a trailing metadata line for the
// workload totals (ReadText and TextReader accept metadata lines
// anywhere). WriteText is TextWriter over a materialized trace.
type TextWriter struct {
	bw     *bufio.Writer
	tb     *callchain.Table
	closed bool
}

// NewTextWriter writes the leading metadata line and returns a writer
// for the event stream.
func NewTextWriter(w io.Writer, meta Meta, tb *callchain.Table) (*TextWriter, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "# program=%s input=%s\n", meta.Program, meta.Input); err != nil {
		return nil, err
	}
	return &TextWriter{bw: bw, tb: tb}, nil
}

// Write renders one event.
func (w *TextWriter) Write(ev Event) error {
	if w.closed {
		return fmt.Errorf("trace: write after Close")
	}
	if err := checkWrite(ev, w.tb.NumChains()); err != nil {
		return err
	}
	if ev.Kind == KindFree {
		_, err := fmt.Fprintf(w.bw, "free %d\n", ev.Obj)
		return err
	}
	_, err := fmt.Fprintf(w.bw, "alloc %d size=%d refs=%d chain=%s\n",
		ev.Obj, ev.Size, ev.Refs, w.tb.String(ev.Chain))
	return err
}

// Close writes the trailing metadata line and flushes.
func (w *TextWriter) Close(funcCalls, nonHeapRefs int64) error {
	if w.closed {
		return fmt.Errorf("trace: double Close")
	}
	w.closed = true
	if _, err := fmt.Fprintf(w.bw, "# calls=%d nonheaprefs=%d\n", funcCalls, nonHeapRefs); err != nil {
		return err
	}
	return w.bw.Flush()
}

// TextReader is a Source decoding the text rendering line by line.
// Chains are interned into a fresh table in order of first appearance,
// exactly as ReadText does; metadata lines may appear anywhere and fold
// into Meta as they are seen.
type TextReader struct {
	sc     *bufio.Scanner
	meta   Meta
	tb     *callchain.Table
	lineNo int
	end    error // the error that ended the stream (fillBlock)
}

// NewTextReader returns a Source over the text format.
func NewTextReader(r io.Reader) *TextReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &TextReader{sc: sc, tb: callchain.NewTable()}
}

// Meta returns the metadata folded in so far; totals carried on a
// trailing metadata line are only present after NextBlock returns
// io.EOF.
func (r *TextReader) Meta() Meta { return r.meta }

// Table returns the interning table built from chains seen so far.
// Unlike the binary Reader, text chains are interned as events are
// decoded, so the table grows during the scan.
func (r *TextReader) Table() *callchain.Table { return r.tb }

// NextBlock implements Source.
func (r *TextReader) NextBlock(b *EventBlock) error { return fillBlock(b, &r.end, r.next) }

// next decodes the next event line, skipping blanks and folding metadata
// lines into Meta.
func (r *TextReader) next() (Event, error) {
	for r.sc.Scan() {
		r.lineNo++
		line := strings.TrimSpace(r.sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			for _, field := range strings.Fields(strings.TrimPrefix(line, "#")) {
				k, v, ok := strings.Cut(field, "=")
				if !ok {
					continue
				}
				var err error
				switch k {
				case "program":
					r.meta.Program = v
				case "input":
					r.meta.Input = v
				case "calls":
					r.meta.FunctionCalls, err = strconv.ParseInt(v, 10, 64)
				case "nonheaprefs":
					r.meta.NonHeapRefs, err = strconv.ParseInt(v, 10, 64)
				}
				if err != nil {
					return Event{}, fmt.Errorf("trace: line %d: bad %s value %q", r.lineNo, k, v)
				}
			}
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "alloc":
			if len(fields) != 5 {
				return Event{}, fmt.Errorf("trace: line %d: malformed alloc", r.lineNo)
			}
			ev := Event{Kind: KindAlloc}
			if _, err := fmt.Sscanf(fields[1], "%d", &ev.Obj); err != nil {
				return Event{}, fmt.Errorf("trace: line %d: %w", r.lineNo, err)
			}
			if _, err := fmt.Sscanf(fields[2], "size=%d", &ev.Size); err != nil {
				return Event{}, fmt.Errorf("trace: line %d: %w", r.lineNo, err)
			}
			if _, err := fmt.Sscanf(fields[3], "refs=%d", &ev.Refs); err != nil {
				return Event{}, fmt.Errorf("trace: line %d: %w", r.lineNo, err)
			}
			chainStr, ok := strings.CutPrefix(fields[4], "chain=")
			if !ok {
				return Event{}, fmt.Errorf("trace: line %d: missing chain", r.lineNo)
			}
			if err := checkAlloc(ev); err != nil {
				return Event{}, fmt.Errorf("trace: line %d: %w", r.lineNo, err)
			}
			if chainStr != "" {
				ev.Chain = r.tb.InternNames(strings.Split(chainStr, ">")...)
			}
			return ev, nil
		case "free":
			if len(fields) != 2 {
				return Event{}, fmt.Errorf("trace: line %d: malformed free", r.lineNo)
			}
			var obj ObjectID
			if _, err := fmt.Sscanf(fields[1], "%d", &obj); err != nil {
				return Event{}, fmt.Errorf("trace: line %d: %w", r.lineNo, err)
			}
			return Event{Kind: KindFree, Obj: obj}, nil
		default:
			return Event{}, fmt.Errorf("trace: line %d: unknown event %q", r.lineNo, fields[0])
		}
	}
	if err := r.sc.Err(); err != nil {
		return Event{}, err
	}
	return Event{}, io.EOF
}
