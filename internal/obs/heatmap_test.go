package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// scanSnapshot builds a snapshot the way a heap-scanned replay would:
// HeapScan on, a few heatmap rows, heap-channel timeline samples.
func scanSnapshot() *Snapshot {
	c := NewCollector(Options{Label: "gawk/firstfit", HeapScan: true, HeatmapBins: 4, TimelineInterval: 100})
	c.SetClock(100)
	c.RecordSample(Sample{
		Clock: 100, LiveBytes: 64, HeapBytes: 128,
		HeapLivePayload: 64, HeapHeaderBytes: 16, HeapInternalFrag: 8,
		HeapExternalFrag: 24, HeapHoleBytes: 16,
		HeapFreeSpans: 3, HeapLargestFreeSpan: 16,
	})
	c.RecordHeatmapRow(HeatmapRow{Clock: 100, Extent: 128, Cells: []int64{32, 24, 16, 16}})
	c.SetClock(200)
	c.RecordHeatmapRow(HeatmapRow{Clock: 200, Extent: 256, Cells: []int64{64, 0, 0, 8}})
	return c.Snapshot()
}

func TestHeapScanDisabledByDefault(t *testing.T) {
	c := NewCollector(Options{Label: "x"})
	if c.HeapScanEnabled() {
		t.Error("HeapScanEnabled true without Options.HeapScan")
	}
	if c.HeatmapBins() != 0 {
		t.Errorf("HeatmapBins = %d without HeapScan, want 0", c.HeatmapBins())
	}
	c.RecordHeatmapRow(HeatmapRow{Clock: 1, Extent: 8, Cells: []int64{8}})
	if s := c.Snapshot(); s.Heatmap != nil {
		t.Error("snapshot of a scanner-off collector carries a heatmap")
	}
	var nilC *Collector
	if nilC.HeapScanEnabled() || nilC.HeatmapBins() != 0 {
		t.Error("nil collector is not inert")
	}
	nilC.RecordHeatmapRow(HeatmapRow{}) // must not panic
}

func TestHeapScanEnabledDefaults(t *testing.T) {
	c := NewCollector(Options{HeapScan: true})
	if !c.HeapScanEnabled() {
		t.Fatal("HeapScanEnabled false with Options.HeapScan")
	}
	if c.HeatmapBins() != DefaultHeatmapBins {
		t.Errorf("HeatmapBins = %d, want default %d", c.HeatmapBins(), DefaultHeatmapBins)
	}
	// An enabled scanner that never sampled still snapshots an empty,
	// non-nil heatmap: "no rows" is distinguishable from "scanner off".
	s := c.Snapshot()
	if s.Heatmap == nil {
		t.Fatal("scanner-on snapshot lost its empty heatmap")
	}
	if s.Heatmap.Bins != DefaultHeatmapBins || len(s.Heatmap.Rows) != 0 {
		t.Errorf("empty heatmap = %+v", s.Heatmap)
	}
}

func TestHeatmapSnapshotIsDeepCopy(t *testing.T) {
	c := NewCollector(Options{HeapScan: true, HeatmapBins: 2})
	c.RecordHeatmapRow(HeatmapRow{Clock: 1, Extent: 4, Cells: []int64{1, 2}})
	s := c.Snapshot()
	s.Heatmap.Rows[0].Cells[0] = 99
	if got := c.Snapshot().Heatmap.Rows[0].Cells[0]; got != 1 {
		t.Errorf("mutating a snapshot leaked into the collector: cell = %d", got)
	}
}

func TestHeatmapRowCap(t *testing.T) {
	c := NewCollector(Options{HeapScan: true, HeatmapBins: 1})
	for i := 0; i < maxHeatmapRows+7; i++ {
		c.RecordHeatmapRow(HeatmapRow{Clock: int64(i), Extent: 1, Cells: []int64{1}})
	}
	rows := c.Snapshot().Heatmap.Rows
	if len(rows) >= maxHeatmapRows {
		t.Fatalf("heatmap grew past the cap: %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Clock <= rows[i-1].Clock {
			t.Fatalf("halved rows out of order at %d: %d after %d", i, rows[i].Clock, rows[i-1].Clock)
		}
	}
}

func TestHeatmapCellsSum(t *testing.T) {
	s := scanSnapshot()
	if got := s.Heatmap.CellsSum(); got != 32+24+16+16+64+8 {
		t.Errorf("CellsSum = %d", got)
	}
	var nilH *Heatmap
	if nilH.CellsSum() != 0 {
		t.Error("nil heatmap CellsSum != 0")
	}
}

func TestSnapshotJSONCarriesHeatmap(t *testing.T) {
	s := scanSnapshot()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Heatmap, s.Heatmap) {
		t.Errorf("heatmap did not survive JSON:\nwant %+v\ngot  %+v", s.Heatmap, back.Heatmap)
	}
	if !reflect.DeepEqual(back.Timeline, s.Timeline) {
		t.Errorf("heap-channel timeline did not survive JSON")
	}

	// Scanner-off snapshots must not even mention the key, so old and new
	// files stay byte-compatible.
	off := NewCollector(Options{Label: "x"}).Snapshot()
	buf.Reset()
	if err := WriteJSON(&buf, off); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "heatmap") {
		t.Error("scanner-off snapshot JSON mentions heatmap")
	}
	if strings.Contains(buf.String(), "heap_live_payload") {
		t.Error("scanner-off snapshot JSON mentions heap channel fields")
	}
}

// TestHeatmapCSVRoundTrip pins WriteHeatmapCSV's bytes: a header naming
// every bin, then each heatmap row, bin for bin.
func TestHeatmapCSVRoundTrip(t *testing.T) {
	s := scanSnapshot()
	var buf bytes.Buffer
	if err := WriteHeatmapCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	want := "clock,extent,bin0,bin1,bin2,bin3\n" +
		"100,128,32,24,16,16\n" +
		"200,256,64,0,0,8\n"
	if got := buf.String(); got != want {
		t.Errorf("heatmap CSV:\nwant %q\ngot  %q", want, got)
	}
}

func TestHeatmapCSVHeaderOnly(t *testing.T) {
	// No heatmap at all: header carries just the fixed columns.
	var buf bytes.Buffer
	if err := WriteHeatmapCSV(&buf, &Snapshot{}); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "clock,extent" {
		t.Errorf("nil-heatmap CSV = %q, want header only", got)
	}

	// Scanner ran but never sampled: full-width header, zero data rows.
	buf.Reset()
	empty := &Snapshot{Heatmap: &Heatmap{Bins: 3}}
	if err := WriteHeatmapCSV(&buf, empty); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 || lines[0] != "clock,extent,bin0,bin1,bin2" {
		t.Errorf("empty-heatmap CSV = %q", buf.String())
	}
}

func TestFlattenHeatmap(t *testing.T) {
	s := scanSnapshot()
	flat := s.Flatten()
	want := map[string]float64{
		"heap.heatmap.bins":      4,
		"heap.heatmap.rows":      2,
		"heap.heatmap.cells_sum": float64(s.Heatmap.CellsSum()),
	}
	for k, v := range want {
		if flat[k] != v {
			t.Errorf("Flatten[%q] = %g, want %g", k, flat[k], v)
		}
	}
	off := NewCollector(Options{Label: "x"}).Snapshot().Flatten()
	for k := range want {
		if _, ok := off[k]; ok {
			t.Errorf("scanner-off Flatten carries %q", k)
		}
	}
}
