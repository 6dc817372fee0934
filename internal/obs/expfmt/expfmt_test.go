package expfmt_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/expfmt"
	"repro/internal/synth"
)

// buildSnapshot exercises every snapshot field the exposition renders.
func buildSnapshot() *obs.Snapshot {
	c := obs.NewCollector(obs.Options{Label: "gawk/arena", TimelineInterval: 100})
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
	lh.Observe(1000) // overflow
	c.SetClock(250)
	c.Emit(obs.EvArenaReuse, 3)
	c.Emit(obs.EvHeapGrow, 4096)
	c.ObserveTiming("engine_cell", 1500*time.Microsecond)
	c.ObserveTiming("engine_cell", 500*time.Microsecond)
	c.Counter("pred.fp_bytes").Add(64)
	c.SetPredSites([]obs.PredSite{
		{Site: "main>parse>alloc", FPObjects: 1, FPBytes: 64, FPCost: 2048},
		{Site: "main>eval>alloc", FNObjects: 2, FNBytes: 32},
	})
	s := c.Snapshot()
	s.Program = "gawk"
	s.Allocator = "arena"
	return s
}

func TestWriteShape(t *testing.T) {
	var buf bytes.Buffer
	if err := expfmt.Write(&buf, buildSnapshot()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		`# TYPE lp_clock_bytes counter`,
		`lp_clock_bytes{allocator="arena",program="gawk"} 250`,
		`lp_arena_resets{allocator="arena",program="gawk"} 7`,
		`# TYPE lp_arena_pinned gauge`,
		`lp_arena_pinned{allocator="arena",program="gawk"} 1`,
		`lp_arena_pinned_max{allocator="arena",program="gawk"} 2`,
		`# TYPE lp_arena_alloc_size histogram`,
		`lp_arena_alloc_size_bucket{allocator="arena",le="+Inf",program="gawk"} 4`,
		`lp_arena_alloc_size_sum{allocator="arena",program="gawk"} 340`,
		`lp_arena_alloc_size_count{allocator="arena",program="gawk"} 4`,
		`lp_events_total{allocator="arena",kind="arena_reuse",program="gawk"} 1`,
		// Overflowed values land in +Inf only: 2 observed, 1 under le=2.
		`lp_arena_scan_len_bucket{allocator="arena",le="2",program="gawk"} 1`,
		`lp_arena_scan_len_bucket{allocator="arena",le="+Inf",program="gawk"} 2`,
		// Wall-clock timings render as a count/sum/max trio.
		`# TYPE lp_engine_cell_count counter`,
		`lp_engine_cell_count{allocator="arena",program="gawk"} 2`,
		`lp_engine_cell_sum_us{allocator="arena",program="gawk"} 2000`,
		`# TYPE lp_engine_cell_max_us gauge`,
		`lp_engine_cell_max_us{allocator="arena",program="gawk"} 1500`,
		// Sink overflow is always exposed, even at zero.
		`# TYPE lp_obs_dropped_events counter`,
		`lp_obs_dropped_events{allocator="arena",program="gawk"} 0`,
		// Per-site misprediction attribution carries a site label.
		`lp_pred_fp_bytes{allocator="arena",program="gawk"} 64`,
		`lp_pred_site_fp_bytes{allocator="arena",program="gawk",site="main>parse>alloc"} 64`,
		`lp_pred_site_fp_cost_bytelife{allocator="arena",program="gawk",site="main>parse>alloc"} 2048`,
		`lp_pred_site_fn_bytes{allocator="arena",program="gawk",site="main>eval>alloc"} 32`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing line %q\n--- got ---\n%s", want, text)
		}
	}
	if strings.Contains(text, "lp_lp_") {
		t.Error("double lp_ prefix in exposition")
	}
}

// TestRoundTripExact is the acceptance property: Write → Parse →
// WriteFamilies reproduces the exposition byte for byte.
func TestRoundTripExact(t *testing.T) {
	roundTrip(t, buildSnapshot())
}

func roundTrip(t *testing.T, s *obs.Snapshot) {
	t.Helper()
	var first bytes.Buffer
	if err := expfmt.Write(&first, s); err != nil {
		t.Fatalf("Write: %v", err)
	}
	fams, err := expfmt.Parse(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var second bytes.Buffer
	if err := expfmt.WriteFamilies(&second, fams); err != nil {
		t.Fatalf("WriteFamilies: %v", err)
	}
	if first.String() != second.String() {
		t.Errorf("round trip not exact:\n--- wrote ---\n%s--- re-rendered ---\n%s",
			first.String(), second.String())
	}
}

// TestRoundTripMidReplay snapshots a collector concurrently with a live
// replay (lpserve's /metrics situation) and requires the same exact
// round-trip. Run under -race this also proves snapshotting mid-replay
// is safe.
func TestRoundTripMidReplay(t *testing.T) {
	col := obs.NewCollector(obs.Options{Label: "mid", TimelineInterval: 4 << 10})
	done := make(chan error, 1)
	m := synth.ByName("gawk")
	gcfg := synth.Config{Input: synth.Test, Seed: 7, Scale: 0.02}
	src, err := m.Source(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.CountEvents(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	src.SetCount(n)
	go func() {
		_, err := core.RunSimSource(src, core.MustNewAllocator("arena"), nil, col)
		done <- err
	}()
	for i := 0; ; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("RunSimSource: %v", err)
			}
			// Final pass over the finished run.
			roundTrip(t, col.Snapshot())
			return
		default:
			s := col.Snapshot()
			s.Program, s.Allocator = "gawk", "arena"
			roundTrip(t, s)
		}
	}
}

func TestGatherMergesJobs(t *testing.T) {
	a, b := buildSnapshot(), buildSnapshot()
	b.Program = "perl"
	fa := expfmt.Families(a, map[string]string{"job": "1"})
	fb := expfmt.Families(b, map[string]string{"job": "2"})
	fams, err := expfmt.Gather(fa, fb)
	if err != nil {
		t.Fatalf("Gather: %v", err)
	}
	var buf bytes.Buffer
	if err := expfmt.WriteFamilies(&buf, fams); err != nil {
		t.Fatalf("WriteFamilies: %v", err)
	}
	text := buf.String()
	if strings.Count(text, "# TYPE lp_clock_bytes counter") != 1 {
		t.Errorf("merged family emitted more than one TYPE line:\n%s", text)
	}
	if !strings.Contains(text, `job="1"`) || !strings.Contains(text, `job="2"`) {
		t.Errorf("merged exposition lost job labels:\n%s", text)
	}
	// Merged output still round-trips exactly.
	parsed, err := expfmt.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Parse(merged): %v", err)
	}
	var again bytes.Buffer
	if err := expfmt.WriteFamilies(&again, parsed); err != nil {
		t.Fatalf("WriteFamilies(parsed): %v", err)
	}
	if again.String() != text {
		t.Error("merged exposition did not round-trip exactly")
	}
}

func TestGatherTypeClash(t *testing.T) {
	_, err := expfmt.Gather(
		[]Family{{Name: "lp_x", Type: "counter"}},
		[]Family{{Name: "lp_x", Type: "gauge"}},
	)
	if err == nil {
		t.Error("type clash accepted")
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for name, text := range map[string]string{
		"sample before TYPE": "lp_x 1\n",
		"bad value":          "# TYPE lp_x counter\nlp_x one\n",
		"foreign sample":     "# TYPE lp_x counter\nlp_y 1\n",
		"unterminated label": "# TYPE lp_x counter\nlp_x{a=\"b 1\n",
		"unsupported type":   "# TYPE lp_x summary\nlp_x 1\n",
	} {
		if _, err := expfmt.Parse(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
}

func TestParseLabelEscapes(t *testing.T) {
	in := "# TYPE lp_x counter\n" + `lp_x{p="a\\b\"c\nd"} 1` + "\n"
	fams, err := expfmt.Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	got := fams[0].Metrics[0].Labels["p"]
	if want := "a\\b\"c\nd"; got != want {
		t.Errorf("unescaped label = %q, want %q", got, want)
	}
	var buf bytes.Buffer
	if err := expfmt.WriteFamilies(&buf, fams); err != nil {
		t.Fatalf("WriteFamilies: %v", err)
	}
	if buf.String() != in {
		t.Errorf("escape round trip: got %q, want %q", buf.String(), in)
	}
}

func TestMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"firstfit.search_len": "lp_firstfit_search_len",
		"arena.pinned":        "lp_arena_pinned",
		"weird-name/2":        "lp_weird_name_2",
	} {
		if got := expfmt.MetricName(in); got != want {
			t.Errorf("MetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// Family is re-exported for the clash test's literal.
type Family = expfmt.Family

// heatSnapshot builds a heap-scanned snapshot with a populated heatmap.
func heatSnapshot() *obs.Snapshot {
	c := obs.NewCollector(obs.Options{Label: "gawk/firstfit", HeapScan: true, HeatmapBins: 3})
	c.Counter("heap.scan_samples").Add(2)
	c.Gauge("heap.live_payload_bytes").Set(96)
	c.SetClock(200)
	c.RecordHeatmapRow(obs.HeatmapRow{Clock: 100, Extent: 128, Cells: []int64{64, 32, 0}})
	c.RecordHeatmapRow(obs.HeatmapRow{Clock: 200, Extent: 256, Cells: []int64{80, 16, 0}})
	s := c.Snapshot()
	s.Program = "gawk"
	s.Allocator = "firstfit"
	return s
}

func TestHeatmapExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := expfmt.Write(&buf, heatSnapshot()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		`# TYPE lp_heap_heatmap_bins gauge`,
		`lp_heap_heatmap_bins{allocator="firstfit",program="gawk"} 3`,
		`# TYPE lp_heap_heatmap_rows counter`,
		`lp_heap_heatmap_rows{allocator="firstfit",program="gawk"} 2`,
		// Extent and per-bin density report the latest row.
		`lp_heap_heatmap_extent_bytes{allocator="firstfit",program="gawk"} 256`,
		`lp_heap_heatmap_live_bytes{allocator="firstfit",bin="0",program="gawk"} 80`,
		`lp_heap_heatmap_live_bytes{allocator="firstfit",bin="1",program="gawk"} 16`,
		`lp_heap_heatmap_live_bytes{allocator="firstfit",bin="2",program="gawk"} 0`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing line %q\n--- got ---\n%s", want, text)
		}
	}

	// Byte-exact round trip must hold for the new families too.
	fams, err := expfmt.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var out bytes.Buffer
	if err := expfmt.WriteFamilies(&out, fams); err != nil {
		t.Fatalf("WriteFamilies: %v", err)
	}
	if out.String() != text {
		t.Error("heatmap families do not round trip byte-exactly")
	}
}

// TestHeatmapExpositionEmpty pins the always-on-zero convention: an
// enabled scanner that never sampled still exposes the bins/rows pair (so
// a scrape can tell "no rows yet" from "scanner off"), but no per-bin or
// extent series.
func TestHeatmapExpositionEmpty(t *testing.T) {
	c := obs.NewCollector(obs.Options{Label: "x", HeapScan: true, HeatmapBins: 5})
	var buf bytes.Buffer
	if err := expfmt.Write(&buf, c.Snapshot()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		`lp_heap_heatmap_bins 5`,
		`lp_heap_heatmap_rows 0`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("empty-heatmap exposition missing %q\n--- got ---\n%s", want, text)
		}
	}
	for _, absent := range []string{"lp_heap_heatmap_extent_bytes", "lp_heap_heatmap_live_bytes"} {
		if strings.Contains(text, absent) {
			t.Errorf("empty-heatmap exposition carries %s", absent)
		}
	}

	// Scanner off: no lp_heap_heatmap_* families at all.
	var off bytes.Buffer
	if err := expfmt.Write(&off, obs.NewCollector(obs.Options{Label: "x"}).Snapshot()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if strings.Contains(off.String(), "lp_heap_heatmap") {
		t.Error("scanner-off exposition mentions heatmap families")
	}
}
