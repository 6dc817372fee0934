package check

import (
	"fmt"
	"testing"

	"repro/internal/callchain"
	"repro/internal/trace"
)

// Fuzzed traces take at most fuzzMaxEvents records and draw on
// fuzzChains call chains. fuzzEdgeSizes are the requests at the
// simulators' edges: the smallest, segfit's largest class (1016 bytes
// and its header) and one past it, 1KB and one past it, the 4KB arena
// and slab page and one either side of it, and the largest, 1MB.
const (
	fuzzMaxEvents = 256
	fuzzChains    = 4
)

var fuzzEdgeSizes = []int64{1, 1016, 1017, 1024, 1025, 4095, 4096, 4097, 1 << 20}

// fuzzTrace decodes fuzz bytes into a legal trace, one event per 4-byte
// record r (a shorter tail is ignored):
//
//   - r[0]%4 == 0 frees the live object r[1] picks, when one is live;
//     otherwise the record allocates, under chain (r[0]>>2)%fuzzChains,
//     at the next id: one past the last id (r[0]%4 == 1), up to 4081 past
//     it (2, with r[3] as the gap), or 2^25 past it (3), which carries
//     every later id past trace.LiveSetCap, out of every live set's
//     slice and into its map;
//   - the request is fuzzEdgeSizes[r[1]] when r[1] indexes it, else
//     r[1]<<(r[2]%21)>>8, clamped to [1, 1MB], so sizes are spread
//     roughly log-uniformly from 1 byte to 1MB.
func fuzzTrace(data []byte) *trace.Trace {
	tb := callchain.NewTable()
	chains := make([]callchain.ChainID, fuzzChains)
	for i := range chains {
		fns := []string{"main", "dispatch", "worker"}[:1+i%3]
		chains[i] = tb.InternNames(append(fns, fmt.Sprintf("fuzz_%d", i))...)
	}
	tr := &trace.Trace{Program: "fuzz", Input: "oracle", Table: tb}
	var live []trace.ObjectID
	next := trace.ObjectID(0)
	for len(data) >= 4 && len(tr.Events) < fuzzMaxEvents {
		r := data[:4]
		data = data[4:]
		op := r[0] % 4
		if op == 0 && len(live) > 0 {
			i := int(r[1]) % len(live)
			tr.Events = append(tr.Events, trace.Event{Kind: trace.KindFree, Obj: live[i]})
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		switch op {
		case 2:
			next += trace.ObjectID(r[3]) << 4
		case 3:
			next += 1 << 25
		}
		size := int64(r[1]) << (r[2] % 21) >> 8
		if int(r[1]) < len(fuzzEdgeSizes) {
			size = fuzzEdgeSizes[r[1]]
		}
		size = min(max(size, 1), 1<<20)
		tr.Events = append(tr.Events, trace.Event{
			Kind:  trace.KindAlloc,
			Obj:   next,
			Size:  size,
			Chain: chains[int(r[0]>>2)%fuzzChains],
			Refs:  int64(r[3] & 7),
		})
		live = append(live, next)
		next++
	}
	tr.FunctionCalls = int64(len(tr.Events)) * 3
	tr.NonHeapRefs = int64(len(tr.Events))
	return tr
}

// FuzzReplayOracle decodes fuzz bytes into a legal trace (fuzzTrace) and
// runs the conformance gate over it: every zoo policy, trained on the
// trace, drives all seven simulators through the lockstep differential
// replay with invariant audits, the metamorphic checks and the
// block/reference replay equivalence. Any failure is a bug in a
// simulator, a policy or a replay engine. The committed corpus (every
// edge size at dense, sparse and past-2^25 ids; short-lived churn with
// immortal objects from the same sites, which pins arenas) runs under
// `go test`; explore with `go test -fuzz=FuzzReplayOracle ./internal/check`.
func FuzzReplayOracle(f *testing.F) {
	fs, err := Factories()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := CheckTraceOracles(fuzzTrace(data), fs, Options{Stride: 32}); err != nil {
			t.Fatal(err)
		}
	})
}
