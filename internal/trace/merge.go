package trace

import "fmt"

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
// guessing. MergeSources applies the same rule to streams.
//
// The interleaving is a modeling choice — concurrent shards have no true
// global allocation order — but byte-clock merging preserves each shard's
// internal lifetimes up to the allocation volume the other shards
// contribute in between, which is the same notion of time the paper uses.
//
// Merge is Collect over MergeSources, with each shard's ids shifted past
// every earlier shard's maximum alloc id (RebaseOffsets).
func Merge(traces []*Trace) (*Trace, error) {
	shards := make([]Source, len(traces))
	maxIDs := make([]ObjectID, len(traces))
	for i, tr := range traces {
		shards[i] = NewSliceSource(tr)
		for _, ev := range tr.Events {
			if ev.Kind == KindAlloc && ev.Obj > maxIDs[i] {
				maxIDs[i] = ev.Obj
			}
		}
	}
	ms, err := MergeSources(shards, RebaseOffsets(maxIDs))
	if err != nil {
		return nil, err
	}
	return Collect(ms)
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
