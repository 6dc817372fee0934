package trace

import (
	"bytes"
	"container/heap"
	"fmt"
	"io"
	"testing"

	"repro/internal/callchain"
)

// traceBytes serializes a trace to its binary encoding (WriteBinary) —
// the strictest available equality: header, table, every event and the
// trailer must match.
func traceBytes(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteBinary(&b, tr); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return b.Bytes()
}

// maxAllocIDs computes, per shard, the maximum object id among alloc
// events — the quantity RebaseOffsets and referenceMerge rebase past.
func maxAllocIDs(traces []*Trace) []ObjectID {
	out := make([]ObjectID, len(traces))
	for i, tr := range traces {
		for _, ev := range tr.Events {
			if ev.Kind == KindAlloc && ev.Obj > out[i] {
				out[i] = ev.Obj
			}
		}
	}
	return out
}

// referenceMerge is the byte-clock merge written over whole event slices,
// independently of the Interleaver and of RebaseOffsets: a min-heap on
// (shard clock, shard index), ids shifted inline past every earlier
// shard's maximum alloc id, chains re-interned by name (InternNames) on
// first use. It is the differential oracle for Merge, as
// check.referenceReplay is for replay.
func referenceMerge(traces []*Trace) (*Trace, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("referenceMerge: no traces")
	}
	programs := make([]string, len(traces))
	inputs := make([]string, len(traces))
	for i, tr := range traces {
		programs[i], inputs[i] = tr.Program, tr.Input
	}
	program, input, err := mergeHeaders(programs, inputs)
	if err != nil {
		return nil, err
	}
	out := &Trace{Program: program, Input: input, Table: callchain.NewTable()}
	shards := make([]*refShard, len(traces))
	maxIDs := maxAllocIDs(traces)
	var base ObjectID
	h := &refHeap{}
	for i, tr := range traces {
		out.FunctionCalls += tr.FunctionCalls
		out.NonHeapRefs += tr.NonHeapRefs
		shards[i] = &refShard{tr: tr, idx: i, base: base, memo: map[callchain.ChainID]callchain.ChainID{}}
		base += maxIDs[i] + 1
		if len(tr.Events) > 0 {
			heap.Push(h, shards[i])
		}
	}
	for h.Len() > 0 {
		s := heap.Pop(h).(*refShard)
		ev := s.tr.Events[s.pos]
		s.pos++
		ev.Obj += s.base
		switch ev.Kind {
		case KindAlloc:
			mapped, ok := s.memo[ev.Chain]
			if !ok {
				fs := s.tr.Table.Funcs(ev.Chain)
				names := make([]string, len(fs))
				for j, f := range fs {
					names[j] = s.tr.Table.FuncName(f)
				}
				mapped = out.Table.InternNames(names...)
				s.memo[ev.Chain] = mapped
			}
			ev.Chain = mapped
			s.clock += ev.Size
		case KindFree:
			ev = Event{Kind: KindFree, Obj: ev.Obj}
		default:
			return nil, fmt.Errorf("referenceMerge: shard %d event %d has bad kind %d", s.idx, s.pos-1, ev.Kind)
		}
		out.Events = append(out.Events, ev)
		if s.pos < len(s.tr.Events) {
			heap.Push(h, s)
		}
	}
	return out, nil
}

// refShard is one input trace's cursor in referenceMerge.
type refShard struct {
	tr    *Trace
	idx   int
	pos   int
	clock int64
	base  ObjectID
	memo  map[callchain.ChainID]callchain.ChainID
}

// refHeap orders shards by (clock, index).
type refHeap []*refShard

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].clock != h[j].clock {
		return h[i].clock < h[j].clock
	}
	return h[i].idx < h[j].idx
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refShard)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// diffMerge asserts Merge — one loop over the Interleaver — produces a
// trace byte-identical to referenceMerge over the same shards.
func diffMerge(t *testing.T, traces []*Trace) {
	t.Helper()
	want, err := referenceMerge(traces)
	if err != nil {
		t.Fatalf("referenceMerge: %v", err)
	}
	got, err := Merge(traces)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	wb, gb := traceBytes(t, want), traceBytes(t, got)
	if !bytes.Equal(wb, gb) {
		t.Fatalf("Merge differs from the reference merge:\nreference: %d bytes, %d events\nMerge:     %d bytes, %d events",
			len(wb), len(want.Events), len(gb), len(got.Events))
	}
}

// TestMergeSourcesMatchesMerge diffs Merge against referenceMerge over
// shard sets with empty shards, sparse ids, non-LIFO frees and several
// chains per shard, in both shard orders.
func TestMergeSourcesMatchesMerge(t *testing.T) {
	a := shardTrace(t, "p", []int64{100, 7, 100, 33}, "big")
	b := shardTrace(t, "p", []int64{10, 10, 10, 10, 10, 10, 10, 10}, "small")
	c := shardTrace(t, "p", []int64{1000}, "huge")

	// Shard with interleaved (non-LIFO) frees, sparse ids, and several
	// chains, exercising memoized re-interning and id rebasing.
	tb := callchain.NewTable()
	d := &Trace{Program: "p", Input: "train", Table: tb}
	c1 := tb.InternNames("main", "alpha")
	c2 := tb.InternNames("main", "beta", "gamma")
	d.Events = []Event{
		{Kind: KindAlloc, Obj: 5, Size: 64, Chain: c1},
		{Kind: KindAlloc, Obj: 9, Size: 16, Chain: c2},
		{Kind: KindFree, Obj: 5},
		{Kind: KindAlloc, Obj: 12, Size: 8, Chain: c1, Refs: 3},
		{Kind: KindFree, Obj: 9},
		// Obj 12 never freed.
	}
	d.FunctionCalls = 3
	d.NonHeapRefs = 11

	cases := [][]*Trace{
		{a},
		{a, b},
		{a, b, c},
		{a, b, c, d},
		{d, c, b, a},
		{&Trace{Program: "p", Input: "train", Table: callchain.NewTable()}, a}, // empty shard
	}
	for _, traces := range cases {
		diffMerge(t, traces)
	}
}

// TestMergeHeaderConvention pins the Program/Input rules: first non-empty
// value wins, empty shards are compatible with anything, conflicting
// non-empty values are an error.
func TestMergeHeaderConvention(t *testing.T) {
	mk := func(program, input string) *Trace {
		tr := shardTrace(t, program, []int64{8}, "f")
		tr.Input = input
		return tr
	}

	// First non-empty wins, including across an empty-headed first shard.
	m, err := Merge([]*Trace{mk("", ""), mk("cfrac", "test")})
	if err != nil {
		t.Fatalf("Merge with empty header: %v", err)
	}
	if m.Program != "cfrac" || m.Input != "test" {
		t.Fatalf("merged header = %q/%q; want cfrac/test", m.Program, m.Input)
	}

	// Conflicting programs error.
	if _, err := Merge([]*Trace{mk("cfrac", "train"), mk("espresso", "train")}); err == nil {
		t.Fatal("Merge accepted conflicting programs")
	}
	// Conflicting inputs error.
	if _, err := Merge([]*Trace{mk("cfrac", "train"), mk("cfrac", "test")}); err == nil {
		t.Fatal("Merge accepted conflicting inputs")
	}
	// Same non-empty values are fine.
	if _, err := Merge([]*Trace{mk("cfrac", "train"), mk("cfrac", "train")}); err != nil {
		t.Fatalf("Merge rejected matching headers: %v", err)
	}
}

// TestKeyedInterleaverPermutationInvariance: with string-key tie-breaks,
// permuting the shard slice must not change the merged (key, event)
// sequence — the property the cluster's tenant ordering relies on.
func TestKeyedInterleaverPermutationInvariance(t *testing.T) {
	a := shardTrace(t, "p", []int64{10, 10, 10, 10}, "fa")
	b := shardTrace(t, "p", []int64{10, 25, 5}, "fb")
	c := shardTrace(t, "p", []int64{40, 40}, "fc")
	traces := []*Trace{a, b, c}
	keys := []string{"tenant-a", "tenant-b", "tenant-c"}

	type step struct {
		key string
		ev  Event
	}
	run := func(perm []int) []step {
		shards := make([]Source, len(perm))
		ks := make([]string, len(perm))
		for i, p := range perm {
			shards[i] = NewSliceSource(traces[p])
			ks[i] = keys[p]
		}
		it, err := NewKeyedInterleaver(shards, ks)
		if err != nil {
			t.Fatal(err)
		}
		var out []step
		for {
			shard, ev, err := it.Next()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, step{key: ks[shard], ev: ev})
		}
	}

	want := run([]int{0, 1, 2})
	for _, perm := range [][]int{{1, 2, 0}, {2, 1, 0}, {0, 2, 1}} {
		got := run(perm)
		if len(got) != len(want) {
			t.Fatalf("perm %v: %d steps, want %d", perm, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("perm %v: step %d = %+v, want %+v", perm, i, got[i], want[i])
			}
		}
	}

	// Duplicate keys are rejected.
	if _, err := NewKeyedInterleaver(
		[]Source{NewSliceSource(a), NewSliceSource(b)},
		[]string{"t", "t"}); err == nil {
		t.Fatal("NewKeyedInterleaver accepted duplicate keys")
	}
}

func TestInterleaverBadKind(t *testing.T) {
	tb := callchain.NewTable()
	tr := &Trace{Program: "p", Table: tb, Events: []Event{{Kind: 99, Obj: 1}}}
	it := NewInterleaver([]Source{NewSliceSource(tr)})
	if _, _, err := it.Next(); err == nil || err == io.EOF {
		t.Fatalf("bad kind: err = %v; want kind error", err)
	}
	// The stream stays dead.
	if _, _, err := it.Next(); err == nil || err == io.EOF {
		t.Fatalf("dead stream: err = %v; want sticky error", err)
	}
}

// FuzzMergeSources builds small legal shard traces from the fuzz input
// and checks Merge, the Interleaver loop, against referenceMerge byte for
// byte. The interpreter keeps every generated trace well-formed (dense
// unique alloc ids per shard, frees only of live objects) so any
// divergence is a merge bug, not input garbage.
func FuzzMergeSources(f *testing.F) {
	f.Add([]byte{2, 0, 10, 1, 20, 0, 200, 1, 1, 0, 0, 1, 30})
	f.Add([]byte{3, 0, 5, 1, 5, 2, 5, 0, 200, 2, 200, 1, 200, 0, 7, 1, 9})
	f.Add([]byte{1, 0, 255, 0, 1, 0, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := int(data[0])%3 + 1
		data = data[1:]
		traces := make([]*Trace, k)
		type shardState struct {
			next ObjectID
			live []ObjectID
		}
		states := make([]*shardState, k)
		chains := []string{"fa", "fb", "fc", "fd"}
		for i := range traces {
			tb := callchain.NewTable()
			traces[i] = &Trace{Program: "p", Input: "train", Table: tb}
			// Pre-intern so chain ids are valid whatever op order the
			// fuzzer picks; the merge re-interns only referenced chains.
			for _, fn := range chains {
				tb.InternNames("main", fn)
			}
			states[i] = &shardState{}
		}
		for j := 0; j+1 < len(data); j += 2 {
			shard := int(data[j]) % k
			op := data[j+1]
			tr, st := traces[shard], states[shard]
			if op >= 200 && len(st.live) > 0 {
				// Free: pick a live object by the op byte.
				pick := int(op) % len(st.live)
				obj := st.live[pick]
				st.live = append(st.live[:pick], st.live[pick+1:]...)
				tr.Events = append(tr.Events, Event{Kind: KindFree, Obj: obj})
				continue
			}
			// Alloc: size in [1, 128], chain by op byte.
			size := int64(op%128) + 1
			chain := tr.Table.InternNames("main", chains[int(op)%len(chains)])
			tr.Events = append(tr.Events, Event{
				Kind: KindAlloc, Obj: st.next, Size: size, Chain: chain,
				Refs: int64(op % 5),
			})
			st.live = append(st.live, st.next)
			st.next++
		}
		for _, tr := range traces {
			if err := Validate(tr); err != nil {
				t.Fatalf("interpreter emitted invalid trace: %v", err)
			}
		}
		diffMerge(t, traces)
	})
}
