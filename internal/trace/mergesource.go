package trace

import (
	"container/heap"
	"fmt"
	"io"
)

// This file is the streaming byte-clock merge engine. Interleaver
// consumes each shard a block at a time and yields (shard,
// event) pairs in shared byte-clock order, leaving ids, chains, and
// tables untouched. It has two callers:
//
//   - the cluster simulator drives it directly — each tenant keeps its
//     own table and oracle, so no re-interning must happen;
//   - Merge drains it into one coherent trace, rebasing object ids and
//     re-interning chains into one fresh table as events arrive. The
//     differential test and FuzzMergeSources pin Merge to a test-only
//     reference merge.

// Interleaver merges k event streams onto one shared virtual byte clock.
// A shard's position in the merge is its local clock — cumulative bytes
// it has allocated so far — and ties break deterministically: by shard
// index (NewInterleaver, matching Merge) or by caller-supplied string
// keys (NewKeyedInterleaver, so the merge order is invariant under
// permutation of the shard slice; the cluster keys by tenant id).
//
// Shards are consumed with one buffered block per shard, so a shard pays
// one interface call per block, not per event. Events, ids, and chains
// pass through unmodified; callers that need a single coherent trace
// want Merge instead.
type Interleaver struct {
	cursors []*mergeCursor
	h       cursorHeap
	inited  bool
	err     error // terminal error; the merged stream is dead once set
}

// mergeCursor is one shard's streaming state: a buffered block, a read
// position within it, and the shard-local byte clock.
type mergeCursor struct {
	src   Source
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
			src: s,
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
			// next call, preserving the event-then-error order.
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
	err := c.src.NextBlock(c.blk)
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
