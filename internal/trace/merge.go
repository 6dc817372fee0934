package trace

import (
	"fmt"
	"io"

	"repro/internal/callchain"
)

// Merge interleaves several traces into one, ordering events by each
// shard's local byte clock (cumulative bytes allocated). This supports
// sharded instrumentation of concurrent Go programs: each goroutine
// records into its own apptrace.Recorder, and the shards merge into a
// single trace whose global time remains bytes-allocated. Object ids are
// re-based so they stay unique; chains are re-interned by function name
// into a fresh table.
//
// Header convention: the merged Program and Input are taken from the
// first shard that sets each field (in practice traces[0] — shards of
// one instrumented run share a header). A shard with an empty field is
// compatible with anything; two shards that set *different* non-empty
// values are a caller error — merging, say, cfrac with espresso would
// silently mislabel the result — and Merge reports it instead of
// guessing.
//
// The interleaving is a modeling choice — concurrent shards have no true
// global allocation order — but byte-clock merging preserves each shard's
// internal lifetimes up to the allocation volume the other shards
// contribute in between, which is the same notion of time the paper uses.
//
// Merge drains one Interleaver over the shards, so clock ties break by
// shard index. Each shard's ids shift past every earlier shard's maximum
// alloc id (RebaseOffsets), and each shard's chains are re-interned once
// through a per-shard memo, in merged-encounter order.
func Merge(traces []*Trace) (*Trace, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("trace: Merge needs at least one trace")
	}
	programs := make([]string, len(traces))
	inputs := make([]string, len(traces))
	shards := make([]Source, len(traces))
	maxIDs := make([]ObjectID, len(traces))
	memos := make([]map[callchain.ChainID]callchain.ChainID, len(traces)) // per shard: shard chain -> merged chain
	out := &Trace{Table: callchain.NewTable()}
	n := 0
	for i, tr := range traces {
		programs[i], inputs[i] = tr.Program, tr.Input
		shards[i] = NewSliceSource(tr)
		memos[i] = make(map[callchain.ChainID]callchain.ChainID)
		for _, ev := range tr.Events {
			if ev.Kind == KindAlloc && ev.Obj > maxIDs[i] {
				maxIDs[i] = ev.Obj
			}
		}
		n += len(tr.Events)
		out.FunctionCalls += tr.FunctionCalls
		out.NonHeapRefs += tr.NonHeapRefs
	}
	var err error
	if out.Program, out.Input, err = mergeHeaders(programs, inputs); err != nil {
		return nil, err
	}
	bases := RebaseOffsets(maxIDs)
	out.Events = make([]Event, 0, n)
	it := NewInterleaver(shards)
	for {
		shard, ev, err := it.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		ev.Obj += bases[shard]
		if ev.Kind == KindAlloc {
			mapped, ok := memos[shard][ev.Chain]
			if !ok {
				mapped = out.Table.InternFrom(traces[shard].Table, ev.Chain)
				memos[shard][ev.Chain] = mapped
			}
			ev.Chain = mapped
		}
		out.Events = append(out.Events, ev)
	}
}

// RebaseOffsets computes the object-id offsets Merge uses: shard i's ids
// shift past every earlier shard's id range, i.e. by the sum of
// (maxAllocID + 1) over shards before it. maxIDs[i] is the maximum
// object id among shard i's alloc events (zero for an empty shard).
func RebaseOffsets(maxIDs []ObjectID) []ObjectID {
	bases := make([]ObjectID, len(maxIDs))
	var base ObjectID
	for i, m := range maxIDs {
		bases[i] = base
		base += m + 1
	}
	return bases
}

// mergeHeaders resolves the merged Program and Input fields: each is the
// first non-empty value across shards, and a shard carrying a different
// non-empty value is an error (see the Merge doc comment).
func mergeHeaders(programs, inputs []string) (program, input string, err error) {
	for i := range programs {
		if p := programs[i]; p != "" {
			if program == "" {
				program = p
			} else if p != program {
				return "", "", fmt.Errorf("trace: merge: shard %d has program %q, earlier shards %q", i, p, program)
			}
		}
		if in := inputs[i]; in != "" {
			if input == "" {
				input = in
			} else if in != input {
				return "", "", fmt.Errorf("trace: merge: shard %d has input %q, earlier shards %q", i, in, input)
			}
		}
	}
	return program, input, nil
}
