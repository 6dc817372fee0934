package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/callchain"
)

// Meta is the per-trace metadata carried alongside an event stream. It is
// the streaming counterpart of the Trace header fields.
type Meta struct {
	Program string // e.g. "cfrac"
	Input   string // e.g. "train" / "test"

	// FunctionCalls and NonHeapRefs summarize the whole workload and are
	// therefore trailer data on a stream: sources that cannot know them
	// up front (the binary and text readers, the synth generators) report
	// zero until NextBlock has returned io.EOF, after which Meta returns
	// final values.
	FunctionCalls int64
	NonHeapRefs   int64
}

// Source is a pull-based stream of trace events in columnar blocks: the
// one idiom every layer — codecs, generators, annotation, simulation —
// consumes. NextBlock resets b and fills it with up to b.Cap() events.
//
// The contract:
//
//   - Table returns the call-chain interning table the events refer to.
//     Every source but the TextReader fills it before the first block;
//     the TextReader interns chains as it decodes them, so its table
//     grows as it streams, and consumers that keep chain ids read the
//     table after io.EOF, as Collect does.
//   - NextBlock returns nil when it produced at least one event. io.EOF
//     marks the clean end of the stream and always arrives with
//     b.N == 0. Any other error means a malformed or truncated trace.
//   - A producer that hits an error (or the clean end) after partly
//     filling a block returns the filled events with a nil error first
//     and the held error on the next call, so consumers observe every
//     event before the error.
//   - After a non-EOF error the stream is dead: no further events come.
//   - Meta may be called at any time. Program and Input are valid from
//     the start; FunctionCalls and NonHeapRefs are only guaranteed final
//     after NextBlock has returned io.EOF (see Meta).
//
// Sources are single-consumer and not safe for concurrent use, matching
// the callchain.Table they carry.
type Source interface {
	Meta() Meta
	Table() *callchain.Table
	NextBlock(b *EventBlock) error
}

// Counted is implemented by sources that know their exact event count in
// advance (SliceSource, ColumnsSource, a synth generator after SetCount).
// Consumers that need trace-relative positions — the observability phase
// marks at 25/50/75% — query it; everything else ignores it.
type Counted interface {
	// EventCount returns the total number of events the source will
	// yield and true, or (0, false) when the count is unknown.
	EventCount() (int, bool)
}

// SliceSource adapts a materialized Trace to the Source interface. It is
// the compatibility bridge: anything holding a Trace can feed a streaming
// consumer.
type SliceSource struct {
	tr *Trace
	i  int
}

// NewSliceSource returns a Source yielding tr's events in order.
func NewSliceSource(tr *Trace) *SliceSource {
	return &SliceSource{tr: tr}
}

// Meta returns the trace's header metadata, complete from the start.
func (s *SliceSource) Meta() Meta {
	return Meta{
		Program:       s.tr.Program,
		Input:         s.tr.Input,
		FunctionCalls: s.tr.FunctionCalls,
		NonHeapRefs:   s.tr.NonHeapRefs,
	}
}

// Table returns the trace's interning table.
func (s *SliceSource) Table() *callchain.Table { return s.tr.Table }

// EventCount implements Counted: a slice always knows its length.
func (s *SliceSource) EventCount() (int, bool) { return len(s.tr.Events), true }

// collectChunk is the largest chunk Collect gathers events in past its
// first one; chunks double up to it.
const collectChunk = 1 << 16

// Collect drains a Source into a materialized Trace — the inverse of
// NewSliceSource. Generate, ReadBinary and ReadText are all Collect over
// their streaming sources. The Trace shares the source's table; table
// and metadata are read after io.EOF, so sources whose table grows as
// they stream (TextReader) and trailer-carrying sources yield complete
// values.
func Collect(src Source) (*Trace, error) {
	var hint int
	if c, ok := src.(Counted); ok {
		hint, _ = c.EventCount()
	}
	// Past the first chunk (sized by a Counted source's exact count),
	// events gather in doubling chunks joined once at the end: no
	// append-growth slack, and no trace-sized array is reallocated while
	// the stream drains.
	var chunks [][]Event
	cur := make([]Event, 0, max(hint, DefaultBlockLen))
	n := 0
	blk := NewEventBlock(DefaultBlockLen)
	for {
		err := src.NextBlock(blk)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for i := 0; i < blk.N; i++ {
			if len(cur) == cap(cur) {
				chunks = append(chunks, cur)
				cur = make([]Event, 0, min(2*cap(cur), collectChunk))
			}
			cur = append(cur, blk.Event(i))
		}
		n += blk.N
	}
	events := cur
	if len(chunks) > 0 {
		events = make([]Event, 0, n)
		for _, c := range chunks {
			events = append(events, c...)
		}
		events = append(events, cur...)
	}
	m := src.Meta()
	return &Trace{
		Program:       m.Program,
		Input:         m.Input,
		Table:         src.Table(),
		Events:        events,
		FunctionCalls: m.FunctionCalls,
		NonHeapRefs:   m.NonHeapRefs,
	}, nil
}

// AnnotateStream performs the lifetime computation over a stream, calling
// emit once per object. Objects are emitted at the moment of death — in
// death order, not birth order — because that is the first point their
// lifetime is known; memory held is bounded by the maximum number of
// simultaneously live objects, never by trace length.
//
// Objects never freed are emitted after the stream ends, in birth order,
// with a lifetime extending to the end of the trace (total bytes
// allocated minus birth) and Freed == false — by construction long-lived
// for any threshold below the remaining allocation volume.
//
// AnnotateStream returns the same errors as Annotate for malformed
// streams (double alloc, unknown or double free, bad kind), plus any
// error returned by emit, which stops the scan.
func AnnotateStream(src Source, emit func(Object) error) error {
	var live LiveSet[Object]
	var bytes int64
	// Event indices in errors stay global: base counts events in
	// completed blocks.
	blk := NewEventBlock(DefaultBlockLen)
	for base := 0; ; base += blk.N {
		err := src.NextBlock(blk)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for k := 0; k < blk.N; k++ {
			i := base + k
			obj := blk.Objs[k]
			switch blk.Kinds[k] {
			case KindAlloc:
				if _, dup := live.Get(obj); dup {
					return fmt.Errorf("trace: event %d: object %d allocated twice", i, obj)
				}
				live.Put(obj, Object{
					ID:    obj,
					Size:  blk.Sizes[k],
					Chain: blk.Chains[k],
					Refs:  blk.Refs[k],
					Birth: bytes,
				})
				bytes += blk.Sizes[k]
			case KindFree:
				o, ok := live.Delete(obj)
				if !ok {
					return fmt.Errorf("trace: event %d: free of unknown object %d", i, obj)
				}
				o.Freed = true
				o.Lifetime = bytes - o.Birth
				if err := emit(o); err != nil {
					return err
				}
			default:
				return fmt.Errorf("trace: event %d: bad kind %d", i, blk.Kinds[k])
			}
		}
	}
	rest := make([]Object, 0, live.Len())
	live.Walk(func(_ ObjectID, o Object) {
		o.Lifetime = bytes - o.Birth
		rest = append(rest, o)
	})
	sort.SliceStable(rest, func(a, b int) bool { return rest[a].Birth < rest[b].Birth })
	for _, o := range rest {
		if err := emit(o); err != nil {
			return err
		}
	}
	return nil
}

// StatsAccum computes trace summary statistics incrementally, one event
// at a time, so streaming producers (lpgen) report Table 2 metrics
// without materializing the trace. Memory held is bounded by the maximum
// number of simultaneously live objects.
type StatsAccum struct {
	s         Stats
	liveSize  LiveSet[int64]
	liveBytes int64
	events    int
}

// NewStatsAccum returns an empty accumulator.
func NewStatsAccum() *StatsAccum { return &StatsAccum{} }

// Add folds one event in. It reports the same errors as ComputeStats for
// malformed event sequences; the event index in errors counts events
// Added so far.
func (a *StatsAccum) Add(ev Event) error {
	i := a.events
	a.events++
	switch ev.Kind {
	case KindAlloc:
		if _, dup := a.liveSize.Get(ev.Obj); dup {
			return fmt.Errorf("trace: event %d: object %d allocated twice", i, ev.Obj)
		}
		a.s.TotalObjects++
		a.s.TotalBytes += ev.Size
		a.s.HeapRefs += ev.Refs
		a.liveSize.Put(ev.Obj, ev.Size)
		a.liveBytes += ev.Size
		if n := int64(a.liveSize.Len()); n > a.s.MaxObjects {
			a.s.MaxObjects = n
		}
		if a.liveBytes > a.s.MaxBytes {
			a.s.MaxBytes = a.liveBytes
		}
	case KindFree:
		sz, ok := a.liveSize.Delete(ev.Obj)
		if !ok {
			return fmt.Errorf("trace: event %d: free of unknown or dead object %d", i, ev.Obj)
		}
		a.liveBytes -= sz
		a.s.FreedObjects++
	default:
		return fmt.Errorf("trace: event %d: bad kind %d", i, ev.Kind)
	}
	return nil
}

// Events returns how many events have been folded in.
func (a *StatsAccum) Events() int { return a.events }

// Finish returns the accumulated statistics, completing HeapRefFrac from
// the workload's non-heap reference count (trailer metadata, so it is
// passed here rather than at construction).
func (a *StatsAccum) Finish(nonHeapRefs int64) Stats {
	s := a.s
	total := s.HeapRefs + nonHeapRefs
	if total > 0 {
		s.HeapRefFrac = float64(s.HeapRefs) / float64(total)
	} else {
		s.HeapRefFrac = 0
	}
	return s
}
