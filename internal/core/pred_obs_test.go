package core

import (
	"reflect"
	"testing"

	"repro/internal/callchain"
	"repro/internal/heapsim"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
)

// handTraces builds a training trace that admits exactly site A as a
// short-lived predictor, and a test trace whose replay produces one of
// each confusion-matrix outcome plus a big filler object (site C) that
// ages the mispredicted ones past the 32KB threshold.
func handTraces(t *testing.T) (train, test *trace.Trace, siteA, siteB, siteC callchain.ChainID) {
	t.Helper()
	tb := callchain.NewTable()
	siteA = tb.InternNames("main", "a")
	siteB = tb.InternNames("main", "b")
	siteC = tb.InternNames("main", "filler")

	// Training: A dies young (short), B and the filler die old (long).
	train = &trace.Trace{
		Program: "hand", Input: "train", Table: tb,
		Events: []trace.Event{
			{Kind: trace.KindAlloc, Obj: 1, Size: 64, Chain: siteA},
			{Kind: trace.KindFree, Obj: 1}, // lifetime 64: short
			{Kind: trace.KindAlloc, Obj: 2, Size: 64, Chain: siteB},
			{Kind: trace.KindAlloc, Obj: 3, Size: 65536, Chain: siteC},
			{Kind: trace.KindFree, Obj: 2}, // lifetime 65536: long
			{Kind: trace.KindFree, Obj: 3}, // lifetime 65536: long
		},
	}
	// Test replay, clock in comments is bytes allocated after the event:
	test = &trace.Trace{
		Program: "hand", Input: "test", Table: tb,
		Events: []trace.Event{
			{Kind: trace.KindAlloc, Obj: 1, Size: 64, Chain: siteA},    // born 0, clock 64, pred short
			{Kind: trace.KindFree, Obj: 1},                             // lifetime 64       -> TP
			{Kind: trace.KindAlloc, Obj: 2, Size: 64, Chain: siteA},    // born 64, pred short
			{Kind: trace.KindAlloc, Obj: 3, Size: 64, Chain: siteB},    // born 128, pred long
			{Kind: trace.KindFree, Obj: 3},                             // lifetime 64       -> FN
			{Kind: trace.KindAlloc, Obj: 4, Size: 64, Chain: siteB},    // born 192, pred long
			{Kind: trace.KindAlloc, Obj: 5, Size: 65536, Chain: siteC}, // born 256, clock 65792, pred long
			{Kind: trace.KindFree, Obj: 2},                             // lifetime 65728    -> FP
			{Kind: trace.KindFree, Obj: 4},                             // lifetime 65600    -> TN
			// Object 5 is never freed: lifetime 65792-256 = 65536 -> TN at finish.
		},
	}
	return train, test, siteA, siteB, siteC
}

// TestPredTrackingPinned pins the confusion matrix, the misprediction
// cost, the per-site attribution, and the rolling-accuracy channel for a
// hand-built trace whose outcomes are known exactly.
func TestPredTrackingPinned(t *testing.T) {
	train, test, siteA, siteB, _ := handTraces(t)
	pred, err := profile.Train(train, profile.DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	p := pred.Predictor()
	if !p.PredictShort(siteA, 64) || p.PredictShort(siteB, 64) {
		t.Fatalf("predictor setup wrong: A short=%v B short=%v",
			p.PredictShort(siteA, 64), p.PredictShort(siteB, 64))
	}

	col := obs.NewCollector(obs.Options{Label: "hand", TimelineInterval: 1})
	res, err := RunSim(test, heapsim.NewFirstFit(), p, col)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	s := res.Obs

	wantCounters := map[string]int64{
		"pred.tp_objects": 1, "pred.fp_objects": 1,
		"pred.fn_objects": 1, "pred.tn_objects": 2,
		"pred.tp_bytes": 64, "pred.fp_bytes": 64,
		"pred.fn_bytes": 64, "pred.tn_bytes": 64 + 65536,
		// Object 2: size 64, lifetime 65728, threshold 32768.
		"pred.fp_cost_bytelife": 64 * (65728 - 32768),
	}
	for name, want := range wantCounters {
		if got := s.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if got := s.Gauges["pred.threshold_bytes"].Value; got != 32<<10 {
		t.Errorf("threshold gauge = %d, want %d", got, 32<<10)
	}

	// Lifetime histograms split by predicted class: 2 predicted short
	// (lifetimes 64, 65728), 3 predicted long (64, 65600, 65536).
	hs := s.Histograms["pred.lifetime_pred_short"]
	if hs.Count != 2 || hs.Sum != 64+65728 {
		t.Errorf("pred-short histogram n=%d sum=%d, want n=2 sum=%d", hs.Count, hs.Sum, 64+65728)
	}
	hl := s.Histograms["pred.lifetime_pred_long"]
	if hl.Count != 3 || hl.Sum != 64+65600+65536 {
		t.Errorf("pred-long histogram n=%d sum=%d, want n=3 sum=%d", hl.Count, hl.Sum, 64+65600+65536)
	}

	tb := test.Table
	wantSites := []obs.PredSite{
		{Site: tb.String(siteA), FPObjects: 1, FPBytes: 64, FPCost: 64 * (65728 - 32768)},
		{Site: tb.String(siteB), FNObjects: 1, FNBytes: 64},
	}
	if !reflect.DeepEqual(s.PredSites, wantSites) {
		t.Errorf("PredSites = %+v, want %+v", s.PredSites, wantSites)
	}

	// The final timeline sample carries the full rolling-accuracy state:
	// 5 decided, 3 correct (TP + 2 TN).
	if len(s.Timeline) == 0 {
		t.Fatal("no timeline samples")
	}
	last := s.Timeline[len(s.Timeline)-1]
	if last.PredDecidedObjects != 5 || last.PredCorrectObjects != 3 {
		t.Errorf("rolling accuracy = %d/%d, want 3/5",
			last.PredCorrectObjects, last.PredDecidedObjects)
	}
	if last.PredDecidedBytes != 4*64+65536 || last.PredCorrectBytes != 64+64+65536 {
		t.Errorf("rolling byte accuracy = %d/%d, want %d/%d",
			last.PredCorrectBytes, last.PredDecidedBytes, 64+64+65536, 4*64+65536)
	}
}

// TestPredTrackingNoPredictor pins the degenerate matrix for a replay with
// no predictor attached: everything is predicted long against the default
// threshold, so only FN/TN cells fill — and all pred.* families still
// exist so baselines keep a full 60-cell shape.
func TestPredTrackingNoPredictor(t *testing.T) {
	_, test, _, _, _ := handTraces(t)
	col := obs.NewCollector(obs.Options{Label: "hand"})
	res, err := RunSim(test, heapsim.NewFirstFit(), nil, col)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	s := res.Obs
	want := map[string]int64{
		"pred.tp_objects": 0, "pred.fp_objects": 0,
		"pred.fn_objects": 2, "pred.tn_objects": 3,
		"pred.fp_cost_bytelife": 0,
	}
	for name, wantV := range want {
		got, ok := s.Counters[name]
		if !ok {
			t.Errorf("counter %s missing from snapshot", name)
			continue
		}
		if got != wantV {
			t.Errorf("counter %s = %d, want %d", name, got, wantV)
		}
	}
	if got := s.Gauges["pred.threshold_bytes"].Value; got != 32<<10 {
		t.Errorf("threshold gauge = %d, want %d", got, 32<<10)
	}
}

// TestPredTrackingSited runs the same hand-built trace through the
// per-site arena path, which must score predictions identically.
func TestPredTrackingSited(t *testing.T) {
	train, test, _, _, _ := handTraces(t)
	pred, err := profile.Train(train, profile.DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	col := obs.NewCollector(obs.Options{Label: "hand/sited"})
	res, err := RunSim(test, heapsim.NewSiteArena(), pred.Predictor(), col)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	s := res.Obs
	for name, want := range map[string]int64{
		"pred.tp_objects": 1, "pred.fp_objects": 1,
		"pred.fn_objects": 1, "pred.tn_objects": 2,
	} {
		if got := s.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
}

// TestPredTrackingPhasesExact holds the tracker's batched pred.*
// publication to per-event scoring. A synth Test trace replays under its
// Train predictor with a known event count, so the 25/50/75% phases are
// marked; every phase's confusion-matrix counters, and the lifetime
// histograms at the end, must equal a map-based reference scorer's at the
// same event counts, and at every timeline sample the registered object
// counters must already sum to the sample's decided objects.
func TestPredTrackingPhasesExact(t *testing.T) {
	a := buildArtifacts(t, "cfrac")
	tr := a.TestTrace
	var col *obs.Collector
	samples := 0
	col = obs.NewCollector(obs.Options{
		TimelineInterval: 4096,
		SampleHook: func(s obs.Sample) {
			samples++
			var decided int64
			for _, name := range predCounterNames[:4] {
				decided += col.Counter(name).Value()
			}
			if decided != s.PredDecidedObjects {
				t.Errorf("sample at clock %d: registered tp+fp+fn+tn = %d, sample decided %d",
					s.Clock, decided, s.PredDecidedObjects)
			}
		},
	})
	res, err := RunSim(tr, heapsim.NewArena(), a.TrainPredictor, col)
	if err != nil {
		t.Fatal(err)
	}
	if samples < 10 {
		t.Fatalf("only %d timeline samples", samples)
	}
	want, hists := referencePredPhases(tr, a.TrainPredictor.NewMapper(tr.Table))
	var labels []string
	for _, p := range res.Obs.Phases {
		labels = append(labels, p.Label)
		for _, name := range predCounterNames {
			if got := p.Counters[name]; got != want[p.Label][name] {
				t.Errorf("phase %s: %s = %d, reference %d", p.Label, name, got, want[p.Label][name])
			}
		}
	}
	if !reflect.DeepEqual(labels, []string{"25%", "50%", "75%", "end"}) {
		t.Errorf("phases %v, want 25%%, 50%%, 75%%, end", labels)
	}
	for _, c := range predCounterNames[:4] {
		if want["end"][c] == 0 {
			t.Errorf("reference %s is 0: the trace does not exercise every cell", c)
		}
	}
	for name, h := range hists {
		if got := res.Obs.Histograms[name]; !reflect.DeepEqual(got, h.Snapshot()) {
			t.Errorf("%s = %+v, reference %+v", name, got, h.Snapshot())
		}
	}
}

// predCounterNames are the confusion-matrix counters, object counts first.
var predCounterNames = []string{
	"pred.tp_objects", "pred.fp_objects", "pred.fn_objects", "pred.tn_objects",
	"pred.tp_bytes", "pred.fp_bytes", "pred.fn_bytes", "pred.tn_bytes",
	"pred.fp_cost_bytelife",
}

// referencePredPhases scores tr's predictions the way the tracker did
// before it batched: a Go map live set, every outcome counted the moment
// its object dies, and the never-freed objects scored at the final clock.
// It returns the nine pred.* counters after the 25/50/75% events and at
// the end, and the two lifetime histograms.
func referencePredPhases(tr *trace.Trace, oracle profile.Oracle) (map[string]map[string]int64, map[string]*obs.Histogram) {
	type live struct {
		size, born int64
		short      bool
	}
	thr := oracle.ShortThreshold()
	hists := map[string]*obs.Histogram{
		"pred.lifetime_pred_short": obs.NewLog2Histogram(predLifetimeBuckets),
		"pred.lifetime_pred_long":  obs.NewLog2Histogram(predLifetimeBuckets),
	}
	counts := map[string]int64{}
	score := func(lo live, lifetime int64) {
		actualShort := lifetime < thr
		cell := "tn"
		switch {
		case lo.short && actualShort:
			cell = "tp"
		case lo.short:
			cell = "fp"
			counts["pred.fp_cost_bytelife"] += lo.size * (lifetime - thr)
		case actualShort:
			cell = "fn"
		}
		counts["pred."+cell+"_objects"]++
		counts["pred."+cell+"_bytes"] += lo.size
		if lo.short {
			hists["pred.lifetime_pred_short"].Observe(lifetime)
		} else {
			hists["pred.lifetime_pred_long"].Observe(lifetime)
		}
	}
	phases := map[string]map[string]int64{}
	mark := func(label string) {
		p := map[string]int64{}
		for _, name := range predCounterNames {
			p[name] = counts[name]
		}
		phases[label] = p
	}
	n := len(tr.Events)
	objs := map[trace.ObjectID]live{}
	clock := int64(0)
	for i, ev := range tr.Events {
		switch ev.Kind {
		case trace.KindAlloc:
			objs[ev.Obj] = live{size: ev.Size, born: clock, short: oracle.PredictShort(ev.Chain, ev.Size)}
			clock += ev.Size
		case trace.KindFree:
			if lo, ok := objs[ev.Obj]; ok {
				delete(objs, ev.Obj)
				score(lo, clock-lo.born)
			}
		}
		switch i + 1 {
		case n / 4:
			mark("25%")
		case n / 2:
			mark("50%")
		case n * 3 / 4:
			mark("75%")
		}
	}
	for _, lo := range objs {
		score(lo, clock-lo.born)
	}
	mark("end")
	return phases, hists
}
