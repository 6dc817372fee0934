package trace

import (
	"container/heap"
	"fmt"
	"io"

	"repro/internal/callchain"
)

// This file is the streaming byte-clock merge. Two layers:
//
//   - Interleaver is the k-way merge engine: it consumes each shard
//     through the block interface and yields (shard, event) pairs in
//     shared byte-clock order, leaving ids, chains, and tables untouched.
//     The cluster simulator drives it directly — each tenant keeps its
//     own table and oracle, so no re-interning must happen.
//   - MergeSource layers the rewriting on top: object-id rebasing and
//     chain re-interning into one fresh table. Merge is Collect over it;
//     the differential test and FuzzMergeSources pin it to a test-only
//     reference merge.

// Interleaver merges k event streams onto one shared virtual byte clock.
// A shard's position in the merge is its local clock — cumulative bytes
// it has allocated so far — and ties break deterministically: by shard
// index (NewInterleaver, matching Merge) or by caller-supplied string
// keys (NewKeyedInterleaver, so the merge order is invariant under
// permutation of the shard slice; the cluster keys by tenant id).
//
// Shards are consumed through AsBlockSource with one buffered block per
// shard, so block-native producers (synth generators, binary readers,
// column views) pay no per-event interface dispatch. Events, ids, and
// chains pass through unmodified; callers that need a single coherent
// trace want MergeSources instead.
type Interleaver struct {
	cursors []*mergeCursor
	h       cursorHeap
	inited  bool
	err     error // terminal error; the merged stream is dead once set
}

// mergeCursor is one shard's streaming state: a buffered block, a read
// position within it, and the shard-local byte clock.
type mergeCursor struct {
	bs    BlockSource
	blk   *EventBlock
	pos   int
	clock int64
	idx   int
	key   string
	byKey bool
}

// NewInterleaver returns an Interleaver over shards with ties broken by
// shard index — the exact event order Merge produces.
func NewInterleaver(shards []Source) *Interleaver {
	it := &Interleaver{cursors: make([]*mergeCursor, len(shards))}
	for i, s := range shards {
		it.cursors[i] = &mergeCursor{
			bs:  AsBlockSource(s),
			blk: NewEventBlock(DefaultBlockLen),
			idx: i,
		}
	}
	return it
}

// NewKeyedInterleaver returns an Interleaver with clock ties broken by
// the given per-shard keys, which must be unique. Because the tie-break
// depends only on the key, permuting (shards, keys) in lockstep permutes
// the shard indices Next reports but leaves the merged event order — and
// every per-key observation derived from it — unchanged.
func NewKeyedInterleaver(shards []Source, keys []string) (*Interleaver, error) {
	if len(keys) != len(shards) {
		return nil, fmt.Errorf("trace: interleaver: %d shards but %d keys", len(shards), len(keys))
	}
	seen := make(map[string]int, len(keys))
	for i, k := range keys {
		if j, dup := seen[k]; dup {
			return nil, fmt.Errorf("trace: interleaver: shards %d and %d share key %q", j, i, k)
		}
		seen[k] = i
	}
	it := NewInterleaver(shards)
	for i, c := range it.cursors {
		c.key = keys[i]
		c.byKey = true
	}
	return it, nil
}

// Next returns the next event in merged order and the index of the shard
// it came from. io.EOF marks the clean end (every shard drained); any
// other error — a malformed shard, or a shard's read failure — kills the
// merged stream, exactly as it would kill a single-shard replay.
func (it *Interleaver) Next() (int, Event, error) {
	if it.err != nil {
		return 0, Event{}, it.err
	}
	if !it.inited {
		it.inited = true
		for _, c := range it.cursors {
			if err := it.fill(c); err != nil {
				it.err = err
				return 0, Event{}, err
			}
			if c.pos < c.blk.N {
				heap.Push(&it.h, c)
			}
		}
	}
	if it.h.Len() == 0 {
		it.err = io.EOF
		return 0, Event{}, io.EOF
	}
	c := it.h[0]
	ev := c.blk.Event(c.pos)
	c.pos++
	switch ev.Kind {
	case KindAlloc:
		c.clock += ev.Size
	case KindFree:
	default:
		it.err = fmt.Errorf("trace: interleaver: shard %d event has bad kind %d", c.idx, ev.Kind)
		return 0, Event{}, it.err
	}
	if c.pos >= c.blk.N {
		if err := it.fill(c); err != nil {
			// The current event is still valid; the error surfaces on the
			// next call, preserving the scalar event-then-error order.
			it.err = err
			heap.Pop(&it.h)
			return c.idx, ev, nil
		}
	}
	if c.pos < c.blk.N {
		heap.Fix(&it.h, 0)
	} else {
		heap.Pop(&it.h)
	}
	return c.idx, ev, nil
}

// fill refills c's buffered block. A clean end leaves the cursor empty
// with a nil error; a non-EOF error is returned.
func (it *Interleaver) fill(c *mergeCursor) error {
	err := c.bs.NextBlock(c.blk)
	c.pos = 0
	if err == io.EOF {
		c.blk.Reset()
		return nil
	}
	return err
}

// cursorHeap is a min-heap on (shard clock, tie-break key).
type cursorHeap []*mergeCursor

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	if h[i].clock != h[j].clock {
		return h[i].clock < h[j].clock
	}
	if h[i].byKey {
		return h[i].key < h[j].key
	}
	return h[i].idx < h[j].idx
}
func (h cursorHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x interface{}) { *h = append(*h, x.(*mergeCursor)) }
func (h *cursorHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return v
}

// MergeSource streams the byte-clock merge of several shards as a single
// coherent trace: object ids rebased by the caller-supplied offsets,
// chains lazily re-interned by function name into a fresh table in
// merged-encounter order. With offsets from RebaseOffsets, collecting the
// stream is exactly Merge over the same shards.
//
// Like TextReader, MergeSource's table grows as the stream is consumed
// (a chain is interned the first time any shard's alloc references it),
// so it deliberately implements only the scalar Source interface: the
// BlockSource contract promises a complete table before the first block,
// which a streaming merge cannot honor.
type MergeSource struct {
	it      *Interleaver
	shards  []Source
	bases   []ObjectID
	memos   []map[callchain.ChainID]callchain.ChainID // per shard: shard chain -> merged chain
	tb      *callchain.Table
	program string
	input   string
}

// MergeSources returns a streaming merge of shards — the Source
// counterpart of Merge. bases[i] is added to every object id from shard
// i; callers must pick offsets that keep the rebased id ranges disjoint
// (RebaseOffsets derives Merge's choice from per-shard maximum ids).
// Program and Input follow Merge's header convention: first non-empty
// value wins, conflicting non-empty values are an error.
func MergeSources(shards []Source, bases []ObjectID) (*MergeSource, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("trace: MergeSources needs at least one shard")
	}
	if len(bases) != len(shards) {
		return nil, fmt.Errorf("trace: MergeSources: %d shards but %d bases", len(shards), len(bases))
	}
	programs := make([]string, len(shards))
	inputs := make([]string, len(shards))
	for i, s := range shards {
		m := s.Meta()
		programs[i], inputs[i] = m.Program, m.Input
	}
	program, input, err := mergeHeaders(programs, inputs)
	if err != nil {
		return nil, err
	}
	ms := &MergeSource{
		it:      NewInterleaver(shards),
		shards:  shards,
		bases:   append([]ObjectID(nil), bases...),
		memos:   make([]map[callchain.ChainID]callchain.ChainID, len(shards)),
		tb:      callchain.NewTable(),
		program: program,
		input:   input,
	}
	for i := range ms.memos {
		ms.memos[i] = make(map[callchain.ChainID]callchain.ChainID)
	}
	return ms, nil
}

// RebaseOffsets computes the object-id offsets Merge uses: shard i's ids
// shift past every earlier shard's id range, i.e. by the sum of
// (maxAllocID + 1) over shards before it. maxIDs[i] is the maximum
// object id among shard i's alloc events (zero for an empty shard). A
// streaming caller that knows each shard's id range up front (synth
// generators number ids densely from zero, so maxIDs[i] = allocs-1)
// passes it here; otherwise any offsets with disjoint ranges work.
func RebaseOffsets(maxIDs []ObjectID) []ObjectID {
	bases := make([]ObjectID, len(maxIDs))
	var base ObjectID
	for i, m := range maxIDs {
		bases[i] = base
		base += m + 1
	}
	return bases
}

// Meta returns the merged header. Program and Input are valid from the
// start; FunctionCalls and NonHeapRefs are sums over the shards and only
// final after Next has returned io.EOF (trailer metadata, as on any
// streaming Source).
func (ms *MergeSource) Meta() Meta {
	m := Meta{Program: ms.program, Input: ms.input}
	for _, s := range ms.shards {
		sm := s.Meta()
		m.FunctionCalls += sm.FunctionCalls
		m.NonHeapRefs += sm.NonHeapRefs
	}
	return m
}

// Table returns the merged chain table. It grows as events stream (see
// the type comment).
func (ms *MergeSource) Table() *callchain.Table { return ms.tb }

// EventCount implements Counted when every shard knows its count.
func (ms *MergeSource) EventCount() (int, bool) {
	total := 0
	for _, s := range ms.shards {
		c, ok := s.(Counted)
		if !ok {
			return 0, false
		}
		n, known := c.EventCount()
		if !known {
			return 0, false
		}
		total += n
	}
	return total, true
}

// Next implements Source: the next merged event with its id rebased and
// its chain re-interned into the merged table.
func (ms *MergeSource) Next() (Event, error) {
	shard, ev, err := ms.it.Next()
	if err != nil {
		return Event{}, err
	}
	ev.Obj += ms.bases[shard]
	if ev.Kind == KindAlloc {
		mapped, ok := ms.memos[shard][ev.Chain]
		if !ok {
			mapped = ms.tb.InternFrom(ms.shards[shard].Table(), ev.Chain)
			ms.memos[shard][ev.Chain] = mapped
		}
		ev.Chain = mapped
	}
	return ev, nil
}
