package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// buildSnapshot exercises every Snapshot field through the public API.
func buildSnapshot() *Snapshot {
	c := NewCollector(Options{Label: "gawk/arena", TimelineInterval: 100})
	c.Counter("arena.resets").Add(7)
	c.Counter("firstfit.splits").Add(3)
	c.Gauge("arena.pinned").Set(2)
	c.Gauge("arena.pinned").Set(1)
	h := c.Log2Histogram("arena.alloc_size", 8)
	for _, v := range []int64{8, 16, 16, 300} {
		h.Observe(v)
	}
	lh := c.LinearHistogram("arena.scan_len", 1, 4)
	lh.Observe(2)
	c.Counter("pred.tp_objects").Add(3)
	c.Counter("pred.fp_objects").Add(1)
	c.Gauge("pred.threshold_bytes").Set(32768)
	c.Log2Histogram("pred.lifetime_pred_short", 12).Observe(100)
	c.SetClock(100)
	c.Emit(EvArenaReuse, 3)
	c.RecordSample(Sample{Clock: 100, LiveBytes: 40, LiveObjects: 2, HeapBytes: 128, ArenaOccupancy: 0.25,
		PredDecidedObjects: 2, PredCorrectObjects: 1, PredDecidedBytes: 32, PredCorrectBytes: 16})
	c.MarkPhase("50%")
	c.SetClock(250)
	c.Emit(EvHeapGrow, 4096)
	c.RecordSample(Sample{Clock: 250, LiveBytes: 80, LiveObjects: 4, HeapBytes: 256, ArenaOccupancy: 0.5,
		PredDecidedObjects: 4, PredCorrectObjects: 3, PredDecidedBytes: 64, PredCorrectBytes: 48})
	c.MarkPhase("end")
	c.SetSites([]SiteBytes{
		{Site: "main>parse>alloc", Allocs: 10, Bytes: 400},
		{Site: "main>eval>alloc", Allocs: 5, Bytes: 100},
	})
	c.SetPredSites([]PredSite{
		{Site: "main>parse>alloc", FPObjects: 1, FPBytes: 64, FPCost: 2048},
		{Site: "main>eval>alloc", FNObjects: 2, FNBytes: 32},
	})
	s := c.Snapshot()
	s.Program = "gawk"
	s.Allocator = "arena"
	return s
}

func TestJSONRoundTrip(t *testing.T) {
	want := buildSnapshot()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, want); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestWriteJSONNil(t *testing.T) {
	if err := WriteJSON(&bytes.Buffer{}, nil); err == nil {
		t.Error("WriteJSON(nil) succeeded")
	}
}

func TestReadJSONGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("ReadJSON of garbage succeeded")
	}
}

func TestReadJSONSchemaGate(t *testing.T) {
	// A snapshot without a schema version must be rejected with a clear
	// message, not decoded into zero values.
	_, err := ReadJSON(strings.NewReader(`{"clock": 42}`))
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schemaless snapshot: got %v, want schema error", err)
	}
	// So must one from a future format.
	_, err = ReadJSON(strings.NewReader(`{"schema": 999, "clock": 42}`))
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("future schema: got %v, want schema error", err)
	}
	// The current version round-trips.
	s, err := ReadJSON(strings.NewReader(`{"schema": 1, "clock": 42}`))
	if err != nil {
		t.Fatalf("current schema rejected: %v", err)
	}
	if s.Clock != 42 {
		t.Errorf("clock = %d, want 42", s.Clock)
	}
}

func TestWriteJSONStampsSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, &Snapshot{Clock: 7}); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if got.Schema != SnapshotSchema {
		t.Errorf("schema = %d, want %d", got.Schema, SnapshotSchema)
	}
}
