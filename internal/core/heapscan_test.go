package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/heapsim"
	"repro/internal/obs"
	"repro/internal/obs/expfmt"
	"repro/internal/synth"
)

// TestHeapScanReconcilesLedger walks every simulator's span layout at each
// timeline sample and checks the scanner's decomposition against the
// replay's own byte ledger:
//
//	live_payload            == timeline LiveBytes (two independent paths)
//	payload+header+internal
//	  +external+holes       == HeapBytes (the decomposition is exhaustive)
//	Σ heatmap cells         == bytes inside live spans
func TestHeapScanReconcilesLedger(t *testing.T) {
	cfg := DefaultConfig(0.01)
	a, err := cfg.Build(synth.ByName("gawk"))
	if err != nil {
		t.Fatal(err)
	}
	hot := a.TrainDB.TopSizes(16)

	for _, name := range heapsim.Names {
		t.Run(name, func(t *testing.T) {
			alloc, err := heapsim.New(name, hot)
			if err != nil {
				t.Fatal(err)
			}
			col := obs.NewCollector(obs.Options{Label: name, HeapScan: true})
			res, err := RunSim(a.TestTrace, alloc, a.TrainPredictor, col)
			if err != nil {
				t.Fatal(err)
			}
			if res.Obs.Allocator != name {
				t.Errorf("snapshot allocator = %q, want %q", res.Obs.Allocator, name)
			}
			s := col.Snapshot()
			if len(s.Timeline) == 0 {
				t.Fatal("no timeline samples")
			}
			if got := s.Counters["heap.scan_samples"]; got != int64(len(s.Timeline)) {
				t.Errorf("heap.scan_samples = %d, timeline has %d samples", got, len(s.Timeline))
			}
			if s.Heatmap == nil || len(s.Heatmap.Rows) != len(s.Timeline) {
				t.Fatalf("heatmap rows = %v, want one per timeline sample", s.Heatmap)
			}
			for i, smp := range s.Timeline {
				if smp.HeapLivePayload != smp.LiveBytes {
					t.Errorf("sample %d: walked payload %d != ledger live %d",
						i, smp.HeapLivePayload, smp.LiveBytes)
				}
				sum := smp.HeapLivePayload + smp.HeapHeaderBytes + smp.HeapInternalFrag +
					smp.HeapExternalFrag + smp.HeapHoleBytes
				if sum != smp.HeapBytes {
					t.Errorf("sample %d: decomposition sums to %d, heap is %d "+
						"(payload=%d header=%d internal=%d external=%d holes=%d)",
						i, sum, smp.HeapBytes, smp.HeapLivePayload, smp.HeapHeaderBytes,
						smp.HeapInternalFrag, smp.HeapExternalFrag, smp.HeapHoleBytes)
				}
				row := s.Heatmap.Rows[i]
				if row.Clock != smp.Clock {
					t.Errorf("heatmap row %d clock %d != sample clock %d", i, row.Clock, smp.Clock)
				}
				liveSpanBytes := smp.HeapLivePayload + smp.HeapHeaderBytes + smp.HeapInternalFrag
				var cellSum int64
				for _, c := range row.Cells {
					cellSum += c
				}
				if cellSum != liveSpanBytes {
					t.Errorf("heatmap row %d sums to %d, live spans hold %d", i, cellSum, liveSpanBytes)
				}
				if row.Extent != smp.HeapBytes {
					t.Errorf("heatmap row %d extent %d != heap %d", i, row.Extent, smp.HeapBytes)
				}
			}
		})
	}
}

// TestHeapScanDoesNotPerturbSim proves the scanner is a pure observer: the
// SimResult and every pre-existing metric family are byte-identical whether
// or not the heap walk runs. Only lp_heap_* lines may differ.
func TestHeapScanDoesNotPerturbSim(t *testing.T) {
	cfg := DefaultConfig(0.01)
	a, err := cfg.Build(synth.ByName("cfrac"))
	if err != nil {
		t.Fatal(err)
	}

	run := func(scan bool) (SimResult, *obs.Snapshot) {
		col := obs.NewCollector(obs.Options{Label: "cfrac/firstfit", HeapScan: scan})
		res, err := RunSim(a.TestTrace, heapsim.NewFirstFit(), a.TrainPredictor, col)
		if err != nil {
			t.Fatal(err)
		}
		snap := res.Obs
		res.Obs = nil
		return res, snap
	}
	plainRes, plainSnap := run(false)
	scanRes, scanSnap := run(true)

	if plainRes != scanRes {
		t.Errorf("heap scan perturbed the SimResult:\noff %+v\non  %+v", plainRes, scanRes)
	}

	render := func(s *obs.Snapshot) string {
		var buf bytes.Buffer
		if err := expfmt.Write(&buf, s); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	stripHeap := func(text string) string {
		var keep []string
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, "lp_heap_") ||
				strings.HasPrefix(line, "# HELP lp_heap_") ||
				strings.HasPrefix(line, "# TYPE lp_heap_") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	plainText := render(plainSnap)
	scanText := stripHeap(render(scanSnap))
	if plainText != scanText {
		t.Errorf("scanner changed a pre-existing family:\n--- scanner off ---\n%s\n--- scanner on, lp_heap_ stripped ---\n%s",
			plainText, scanText)
	}
	if !strings.Contains(render(scanSnap), "lp_heap_live_payload_bytes") {
		t.Error("scanner-on exposition lacks lp_heap_ families")
	}
}

// TestFragBenchWorkerSweep locks in the determinism the CI frag gate relies
// on: the heap.* bench file is byte-identical at any worker count.
func TestFragBenchWorkerSweep(t *testing.T) {
	jobs, err := ParseMatrix("gawk,cfrac/firstfit,arena/true")
	if err != nil {
		t.Fatal(err)
	}
	SortJobs(jobs)
	cfg := DefaultConfig(0.005)

	bench := func(workers int) string {
		runner := NewMatrixRunner(cfg)
		results := runner.RunAll(jobs, workers, func(j MatrixJob) *obs.Collector {
			return obs.NewCollector(obs.Options{Label: j.String(), HeapScan: true})
		})
		file := &BenchFile{Label: "sweep", Scale: 0.005, SeedBase: cfg.SeedBase}
		for _, res := range results {
			if res.Err != nil {
				t.Fatalf("job %s: %v", res.Job, res.Err)
			}
			file.Runs = append(file.Runs, NewBenchRun(res.Job, res.Res))
		}
		var buf bytes.Buffer
		if err := WriteBench(&buf, file); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	base := bench(1)
	if !strings.Contains(base, "heap.live_payload_bytes") {
		t.Fatal("bench file lacks heap.* families with HeapScan on")
	}
	for _, w := range []int{2, 4} {
		if got := bench(w); got != base {
			t.Errorf("bench file differs between -workers 1 and -workers %d", w)
		}
	}
}
