package trace

import (
	"io"

	"repro/internal/callchain"
)

// The columnar event API. A per-event stream would cost an interface
// dispatch, a 40-byte struct copy, and a branch per event at every layer
// boundary. EventBlock amortizes that: a producer fills a fixed-capacity
// struct-of-arrays batch, a consumer iterates the columns with plain
// index arithmetic, and the per-event boundary cost drops to a slice
// load. The synth generators, SliceSource and ColumnsSource fill blocks
// natively; the binary and text readers decode one event at a time and
// fill blocks through fillBlock.

// DefaultBlockLen is the event capacity consumers allocate by default: big
// enough to amortize per-block overhead to noise, small enough that a
// block (~15KB of columns) stays cache-resident.
const DefaultBlockLen = 512

// EventBlock is a fixed-capacity struct-of-arrays batch of events. The
// five column slices share one capacity; entries [0, N) are valid. For
// KindFree events the Sizes, Chains and Refs columns hold zero, exactly as
// the corresponding Event fields would.
//
// Producers either write into the caller's columns (the recycling
// contract: a block passed to NextBlock is reset and refilled, so one
// block serves an entire replay with zero steady-state allocation) or
// repoint the column slices at producer-owned storage (ColumnsSource's
// zero-copy views). Either way the contents are valid only until the next
// NextBlock call on the same producer.
type EventBlock struct {
	N      int // events in the block
	Kinds  []Kind
	Objs   []ObjectID
	Sizes  []int64
	Chains []callchain.ChainID
	Refs   []int64
}

// NewEventBlock returns an empty block with the given event capacity
// (DefaultBlockLen when n <= 0).
func NewEventBlock(n int) *EventBlock {
	if n <= 0 {
		n = DefaultBlockLen
	}
	return &EventBlock{
		Kinds:  make([]Kind, n),
		Objs:   make([]ObjectID, n),
		Sizes:  make([]int64, n),
		Chains: make([]callchain.ChainID, n),
		Refs:   make([]int64, n),
	}
}

// Cap returns the block's event capacity.
func (b *EventBlock) Cap() int { return len(b.Kinds) }

// Reset empties the block without touching the columns.
func (b *EventBlock) Reset() { b.N = 0 }

// Full reports whether another event fits.
func (b *EventBlock) Full() bool { return b.N >= len(b.Kinds) }

// Append adds one event to the block; the caller must ensure !Full().
func (b *EventBlock) Append(ev Event) {
	i := b.N
	b.Kinds[i] = ev.Kind
	b.Objs[i] = ev.Obj
	b.Sizes[i] = ev.Size
	b.Chains[i] = ev.Chain
	b.Refs[i] = ev.Refs
	b.N = i + 1
}

// Event reassembles row i as a scalar Event.
func (b *EventBlock) Event(i int) Event {
	return Event{
		Kind:  b.Kinds[i],
		Obj:   b.Objs[i],
		Size:  b.Sizes[i],
		Chain: b.Chains[i],
		Refs:  b.Refs[i],
	}
}

// fillBlock resets b and fills it by repeated next calls — the one
// batching loop for the per-event decoders (Reader, TextReader). The
// error that ends the stream, io.EOF included, is kept in *end: when it
// arrives after a partly filled block the events go out first with a nil
// error, and every later call returns it, so a dead stream stays dead
// however the decoder would fare on the bytes past its error.
func fillBlock(b *EventBlock, end *error, next func() (Event, error)) error {
	b.Reset()
	if *end != nil {
		return *end
	}
	for !b.Full() {
		ev, err := next()
		if err != nil {
			*end = err
			if b.N == 0 {
				return err
			}
			return nil
		}
		b.Append(ev)
	}
	return nil
}

// NextBlock implements Source by copying the next window of events into
// the caller's columns.
func (s *SliceSource) NextBlock(b *EventBlock) error {
	b.Reset()
	if s.i >= len(s.tr.Events) {
		return io.EOF
	}
	events := s.tr.Events[s.i:]
	n := b.Cap()
	if n > len(events) {
		n = len(events)
	}
	for k := 0; k < n; k++ {
		ev := &events[k]
		b.Kinds[k] = ev.Kind
		b.Objs[k] = ev.Obj
		b.Sizes[k] = ev.Size
		b.Chains[k] = ev.Chain
		b.Refs[k] = ev.Refs
	}
	b.N = n
	s.i += n
	return nil
}

// Columns is a whole trace transposed into columnar storage: the same five
// columns as EventBlock, but trace-length. Building it costs one pass; a
// ColumnsSource then serves zero-copy block views into it, which makes a
// repeatedly-replayed trace (benchmarks, the differential harness) the
// cheapest possible producer.
type Columns struct {
	Kinds  []Kind
	Objs   []ObjectID
	Sizes  []int64
	Chains []callchain.ChainID
	Refs   []int64
}

// NewColumns transposes a slice of events. Free events store zero in the
// alloc-only columns, as everywhere else.
func NewColumns(events []Event) *Columns {
	c := &Columns{
		Kinds:  make([]Kind, len(events)),
		Objs:   make([]ObjectID, len(events)),
		Sizes:  make([]int64, len(events)),
		Chains: make([]callchain.ChainID, len(events)),
		Refs:   make([]int64, len(events)),
	}
	for i := range events {
		ev := &events[i]
		c.Kinds[i] = ev.Kind
		c.Objs[i] = ev.Obj
		c.Sizes[i] = ev.Size
		c.Chains[i] = ev.Chain
		c.Refs[i] = ev.Refs
	}
	return c
}

// Len returns the event count.
func (c *Columns) Len() int { return len(c.Kinds) }

// ColumnsSource yields a transposed trace as zero-copy block views. It
// implements Source (and Counted), so it can stand in for a SliceSource
// anywhere; NextBlock repoints the caller's block at the next window of
// the columns instead of copying.
type ColumnsSource struct {
	meta Meta
	tb   *callchain.Table
	cols *Columns
	i    int
	blk  int // NextBlock window length (DefaultBlockLen)
}

// NewColumnsSource returns a source over pre-transposed columns with the
// given metadata and chain table.
func NewColumnsSource(meta Meta, tb *callchain.Table, cols *Columns) *ColumnsSource {
	return &ColumnsSource{meta: meta, tb: tb, cols: cols, blk: DefaultBlockLen}
}

// NewTraceColumns transposes a materialized trace and returns a source
// over it — the columnar twin of NewSliceSource.
func NewTraceColumns(tr *Trace) *ColumnsSource {
	return NewColumnsSource(Meta{
		Program:       tr.Program,
		Input:         tr.Input,
		FunctionCalls: tr.FunctionCalls,
		NonHeapRefs:   tr.NonHeapRefs,
	}, tr.Table, NewColumns(tr.Events))
}

// Meta returns the trace metadata, complete from the start.
func (s *ColumnsSource) Meta() Meta { return s.meta }

// Table returns the chain table.
func (s *ColumnsSource) Table() *callchain.Table { return s.tb }

// EventCount implements Counted.
func (s *ColumnsSource) EventCount() (int, bool) { return s.cols.Len(), true }

// Reset rewinds the source to the first event for another replay.
func (s *ColumnsSource) Reset() { s.i = 0 }

// NextBlock implements Source by repointing b's columns at the next
// window — no copying. The view is valid until the next call, per the
// EventBlock contract.
func (s *ColumnsSource) NextBlock(b *EventBlock) error {
	b.Reset()
	n := s.cols.Len() - s.i
	if n <= 0 {
		return io.EOF
	}
	if n > s.blk {
		n = s.blk
	}
	i, j := s.i, s.i+n
	b.Kinds = s.cols.Kinds[i:j]
	b.Objs = s.cols.Objs[i:j]
	b.Sizes = s.cols.Sizes[i:j]
	b.Chains = s.cols.Chains[i:j]
	b.Refs = s.cols.Refs[i:j]
	b.N = n
	s.i = j
	return nil
}
