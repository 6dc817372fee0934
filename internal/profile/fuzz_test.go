package profile

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/callchain"
	"repro/internal/trace"
)

// fuzzSeedTrace builds the small deterministic trace the fuzz seeds are
// serialized from: three sites with short, long, and mixed behaviour.
func fuzzSeedTrace() *trace.Trace {
	tb := callchain.NewTable()
	tr := &trace.Trace{Program: "fuzz", Input: "seed", Table: tb}
	hot := tb.InternNames("main", "hot", "malloc")
	cold := tb.InternNames("main", "cold", "malloc")
	mix := tb.InternNames("main", "mix", "malloc")
	ev := func(e trace.Event) { tr.Events = append(tr.Events, e) }
	for i := 0; i < 4; i++ {
		ev(trace.Event{Kind: trace.KindAlloc, Obj: trace.ObjectID(i), Size: 16, Chain: hot, Refs: 1})
		ev(trace.Event{Kind: trace.KindFree, Obj: trace.ObjectID(i)})
	}
	ev(trace.Event{Kind: trace.KindAlloc, Obj: 10, Size: 32, Chain: cold, Refs: 2})
	ev(trace.Event{Kind: trace.KindAlloc, Obj: 11, Size: 24, Chain: mix, Refs: 0})
	ev(trace.Event{Kind: trace.KindFree, Obj: 11})
	ev(trace.Event{Kind: trace.KindAlloc, Obj: 12, Size: 24, Chain: mix, Refs: 0})
	ev(trace.Event{Kind: trace.KindAlloc, Obj: 13, Size: 65536, Chain: hot, Refs: 0})
	ev(trace.Event{Kind: trace.KindFree, Obj: 13})
	ev(trace.Event{Kind: trace.KindFree, Obj: 12})
	ev(trace.Event{Kind: trace.KindFree, Obj: 10})
	return tr
}

// fuzzSeedBytes returns the seed trace in the binary format plus the
// usual corruptions and an alloc naming a chain the table lacks, shared
// by the fuzz seeds and the committed corpus.
func fuzzSeedBytes() [][]byte {
	tr := fuzzSeedTrace()
	var b bytes.Buffer
	if err := trace.WriteBinary(&b, tr); err != nil {
		panic(err)
	}
	good := b.Bytes()
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0xFF
	// The header alone (an empty trace less its sentinel and two zero
	// trailer varints), then an alloc (obj 0, size 16) naming chain 9 of
	// the table's 4, the sentinel and a zero trailer.
	var h bytes.Buffer
	if err := trace.WriteBinary(&h, &trace.Trace{Program: tr.Program, Input: tr.Input, Table: tr.Table}); err != nil {
		panic(err)
	}
	unknown := append(h.Bytes()[:h.Len()-3], 1, 0, 16, 9, 0, 0, 0, 0)
	return [][]byte{
		good,
		good[:len(good)/2],   // truncated mid-events
		bad,                  // corrupted event byte
		unknown,              // alloc names a chain the table lacks
		[]byte("LPTRACE2\n"), // header only
	}
}

// FuzzTrainOracles trains every registered zoo policy on arbitrary trace
// bytes and checks the training contract: no panic on any accepted input,
// training twice yields an oracle with bit-identical verdicts, and
// PredictShort is total — it answers (rather than panics) for every site
// observed in the fuzzed trace and for never-observed probe keys. Run the
// corpus as a unit test, or explore with
// `go test -fuzz=FuzzTrainOracles ./internal/profile`.
func FuzzTrainOracles(f *testing.F) {
	for _, seed := range fuzzSeedBytes() {
		f.Add(seed)
	}
	cfg := Config{ShortThreshold: 1000}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.ReadBinary(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		// Collect the alloc-event keys before training mutates the table
		// with derived site chains.
		type key struct {
			chain callchain.ChainID
			size  int64
		}
		var keys []key
		for _, ev := range tr.Events {
			if ev.Kind == trace.KindAlloc {
				keys = append(keys, key{ev.Chain, ev.Size})
			}
		}
		// Probe a chain no trace event mentions plus adversarial sizes.
		// Chain ids are table indices, so a verdict is owed for any id the
		// trace's table actually holds — not for out-of-range ids.
		fresh := tr.Table.InternNames("fuzz", "probe", "site")
		probes := []key{
			{fresh, 0},
			{fresh, -8},
			{fresh, 16},
			{fresh, 1 << 40},
		}
		if len(keys) > 0 {
			probes = append(probes, key{keys[0].chain, keys[0].size + 1})
		}
		for _, zt := range ZooTrainers() {
			o1, err1 := trainZoo(zt, tr, cfg)
			o2, err2 := trainZoo(zt, tr, cfg)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: double-train error verdicts differ: %v vs %v", zt.Name, err1, err2)
			}
			if err1 != nil {
				continue // semantically invalid trace, rejected deterministically
			}
			if o1.ShortThreshold() != o2.ShortThreshold() {
				t.Fatalf("%s: thresholds differ across trainings", zt.Name)
			}
			for _, k := range keys {
				if o1.PredictShort(k.chain, k.size) != o2.PredictShort(k.chain, k.size) {
					t.Fatalf("%s: double-train verdicts differ at chain=%d size=%d", zt.Name, k.chain, k.size)
				}
			}
			for _, k := range probes {
				if o1.PredictShort(k.chain, k.size) != o2.PredictShort(k.chain, k.size) {
					t.Fatalf("%s: probe verdicts differ at chain=%d size=%d", zt.Name, k.chain, k.size)
				}
			}
		}
	})
}

// TestFuzzCorpusPresent guards the committed FuzzTrainOracles seed corpus
// (go test runs every entry in unit mode, making it regression coverage):
// it must exist and every entry must be in the corpus v1 encoding.
func TestFuzzCorpusPresent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzTrainOracles")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("FuzzTrainOracles corpus missing: %v", err)
	}
	if len(entries) < 5 {
		t.Errorf("FuzzTrainOracles corpus has %d entries, want >= 5", len(entries))
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "go test fuzz v1\n") {
			t.Errorf("%s: not in corpus v1 format", e.Name())
		}
	}
}
