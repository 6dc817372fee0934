package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/callchain"
	"repro/internal/xrand"
)

// buildTrace constructs a small hand-written trace:
//
//	obj 0: 100 bytes, freed after obj1+obj2 born (lifetime 100+50 = wait...)
//
// Events: A0(100) A1(40) F0 A2(60) F2, obj1 never freed.
func buildTrace(t *testing.T) *Trace {
	t.Helper()
	tb := callchain.NewTable()
	c1 := tb.InternNames("main", "parse", "xmalloc")
	c2 := tb.InternNames("main", "eval", "xmalloc")
	return &Trace{
		Program:       "toy",
		Input:         "train",
		Table:         tb,
		FunctionCalls: 1234,
		NonHeapRefs:   900,
		Events: []Event{
			{Kind: KindAlloc, Obj: 0, Size: 100, Chain: c1, Refs: 10},
			{Kind: KindAlloc, Obj: 1, Size: 40, Chain: c2, Refs: 20},
			{Kind: KindFree, Obj: 0},
			{Kind: KindAlloc, Obj: 2, Size: 60, Chain: c1, Refs: 70},
			{Kind: KindFree, Obj: 2},
		},
	}
}

func TestAnnotateLifetimes(t *testing.T) {
	tr := buildTrace(t)
	objs, err := Annotate(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 {
		t.Fatalf("got %d objects, want 3", len(objs))
	}
	// obj0 born at byte 0; dies after 100+40=140 bytes allocated -> lifetime 140-0=140.
	if objs[0].Lifetime != 140 || !objs[0].Freed {
		t.Errorf("obj0 lifetime=%d freed=%v, want 140/true", objs[0].Lifetime, objs[0].Freed)
	}
	// obj1 born at byte 100, never freed; total bytes = 200 -> lifetime 100.
	if objs[1].Lifetime != 100 || objs[1].Freed {
		t.Errorf("obj1 lifetime=%d freed=%v, want 100/false", objs[1].Lifetime, objs[1].Freed)
	}
	// obj2 born at byte 140, freed immediately after -> lifetime 60 (its own size).
	if objs[2].Lifetime != 60 || !objs[2].Freed {
		t.Errorf("obj2 lifetime=%d freed=%v, want 60/true", objs[2].Lifetime, objs[2].Freed)
	}
	if objs[2].Birth != 140 {
		t.Errorf("obj2 birth=%d, want 140", objs[2].Birth)
	}
}

func TestAnnotateErrors(t *testing.T) {
	tb := callchain.NewTable()
	cases := []struct {
		name   string
		events []Event
	}{
		{"double alloc", []Event{
			{Kind: KindAlloc, Obj: 1, Size: 8},
			{Kind: KindAlloc, Obj: 1, Size: 8},
		}},
		{"free unknown", []Event{{Kind: KindFree, Obj: 9}}},
		{"double free", []Event{
			{Kind: KindAlloc, Obj: 1, Size: 8},
			{Kind: KindFree, Obj: 1},
			{Kind: KindFree, Obj: 1},
		}},
		{"bad kind", []Event{{Kind: 0, Obj: 1}}},
	}
	for _, c := range cases {
		tr := &Trace{Table: tb, Events: c.events}
		if _, err := Annotate(tr); err == nil {
			t.Errorf("%s: Annotate accepted malformed trace", c.name)
		}
		if err := Validate(tr); err == nil {
			t.Errorf("%s: Validate accepted malformed trace", c.name)
		}
	}
}

func TestComputeStats(t *testing.T) {
	tr := buildTrace(t)
	s, err := ComputeStats(tr)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalObjects != 3 || s.TotalBytes != 200 {
		t.Errorf("totals: %d objs %d bytes, want 3/200", s.TotalObjects, s.TotalBytes)
	}
	// Live peaks: after A1 we have 140 bytes, 2 objects; after A2 we have
	// 40+60=100 bytes, 2 objects. Max bytes 140, max objects 2.
	if s.MaxBytes != 140 {
		t.Errorf("MaxBytes = %d, want 140", s.MaxBytes)
	}
	if s.MaxObjects != 2 {
		t.Errorf("MaxObjects = %d, want 2", s.MaxObjects)
	}
	if s.FreedObjects != 2 {
		t.Errorf("FreedObjects = %d, want 2", s.FreedObjects)
	}
	if s.HeapRefs != 100 {
		t.Errorf("HeapRefs = %d, want 100", s.HeapRefs)
	}
	if s.HeapRefFrac != 0.1 {
		t.Errorf("HeapRefFrac = %v, want 0.1", s.HeapRefFrac)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := buildTrace(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, tr, got)
}

func TestTextRoundTrip(t *testing.T) {
	tr := buildTrace(t)
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, tr, got)
}

func assertTracesEqual(t *testing.T, want, got *Trace) {
	t.Helper()
	if got.Program != want.Program || got.Input != want.Input {
		t.Errorf("metadata: got %s/%s, want %s/%s", got.Program, got.Input, want.Program, want.Input)
	}
	if got.FunctionCalls != want.FunctionCalls {
		t.Errorf("FunctionCalls: got %d, want %d", got.FunctionCalls, want.FunctionCalls)
	}
	if got.NonHeapRefs != want.NonHeapRefs {
		t.Errorf("NonHeapRefs: got %d, want %d", got.NonHeapRefs, want.NonHeapRefs)
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("event count: got %d, want %d", len(got.Events), len(want.Events))
	}
	for i := range want.Events {
		w, g := want.Events[i], got.Events[i]
		if w.Kind != g.Kind || w.Obj != g.Obj || w.Size != g.Size || w.Refs != g.Refs {
			t.Fatalf("event %d: got %+v, want %+v", i, g, w)
		}
		if w.Kind == KindAlloc {
			if want.Table.String(w.Chain) != got.Table.String(g.Chain) {
				t.Fatalf("event %d: chain %q != %q", i,
					got.Table.String(g.Chain), want.Table.String(w.Chain))
			}
		}
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a trace"),
		[]byte("LPTRACE2\n"), // truncated after magic
	}
	for i, b := range cases {
		if _, err := ReadBinary(bytes.NewReader(b)); err == nil {
			t.Errorf("case %d: ReadBinary accepted garbage", i)
		}
	}
	// The retired count-prefixed format is refused by its magic.
	old := []byte("LPTRACE1\n\x00\x00\x00\x00\x00\x00\x00")
	if _, err := ReadBinary(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("LPTRACE1 input: err = %v, want bad magic", err)
	}
}

func TestReadTextRejectsGarbage(t *testing.T) {
	cases := []string{
		"alloc",
		"alloc 1 size=x refs=2 chain=a",
		"free",
		"explode 3",
		"alloc 1 size=8 refs=0 nochain",
	}
	for _, s := range cases {
		if _, err := ReadText(strings.NewReader(s)); err == nil {
			t.Errorf("ReadText accepted %q", s)
		}
	}
}

func TestTextEmptyChain(t *testing.T) {
	tb := callchain.NewTable()
	tr := &Trace{
		Table: tb,
		Events: []Event{
			{Kind: KindAlloc, Obj: 0, Size: 8, Chain: 0, Refs: 0},
		},
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Events[0].Chain != 0 {
		t.Fatalf("empty chain did not round-trip: %d", got.Events[0].Chain)
	}
}

// randomTrace builds a structurally valid random trace for property tests.
func randomTrace(seed uint64, n int) *Trace {
	r := xrand.New(seed)
	tb := callchain.NewTable()
	chains := []callchain.ChainID{
		tb.InternNames("main", "a", "malloc"),
		tb.InternNames("main", "b", "xmalloc"),
		tb.InternNames("main", "b", "c", "xmalloc"),
	}
	tr := &Trace{Program: "rand", Input: "x", Table: tb}
	var live []ObjectID
	var next ObjectID
	for i := 0; i < n; i++ {
		if len(live) > 0 && r.Bool(0.45) {
			k := r.Intn(len(live))
			tr.Events = append(tr.Events, Event{Kind: KindFree, Obj: live[k]})
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			tr.Events = append(tr.Events, Event{
				Kind:  KindAlloc,
				Obj:   next,
				Size:  r.Range(1, 512),
				Chain: chains[r.Intn(len(chains))],
				Refs:  r.Range(0, 100),
			})
			live = append(live, next)
			next++
		}
	}
	return tr
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		tr := randomTrace(seed, 200)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				// ChainIDs are preserved exactly by the binary codec.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any valid trace, sum of per-object sizes equals total
// bytes, and every annotated lifetime is non-negative and at most total.
func TestQuickAnnotateInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		tr := randomTrace(seed, 300)
		objs, err := Annotate(tr)
		if err != nil {
			return false
		}
		s, err := ComputeStats(tr)
		if err != nil {
			return false
		}
		var sum int64
		for _, o := range objs {
			sum += o.Size
			if o.Lifetime < 0 || o.Lifetime > s.TotalBytes {
				return false
			}
			if o.Birth < 0 || o.Birth+o.Lifetime > s.TotalBytes {
				return false
			}
		}
		return sum == s.TotalBytes && int64(len(objs)) == s.TotalObjects
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAnnotate(b *testing.B) {
	tr := randomTrace(1, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Annotate(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryCodec(b *testing.B) {
	tr := randomTrace(1, 100000)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
