package profile

import (
	"math"
	"testing"

	"repro/internal/callchain"
	"repro/internal/trace"
)

// mkTrace builds a trace where objects' lifetimes are controlled by
// spacing: each entry allocates size bytes at chain and is freed after
// `after` further allocation events complete (-1 = never freed).
type allocSpec struct {
	chain []string
	size  int64
	life  int64 // bytes of later allocation before free; -1 = never
	refs  int64
}

func mkTrace(t *testing.T, specs []allocSpec) *trace.Trace {
	t.Helper()
	tb := callchain.NewTable()
	tr := &trace.Trace{Program: "test", Input: "train", Table: tb}
	var cum int64
	type death struct {
		at  int64
		obj trace.ObjectID
	}
	var deaths []death
	for i, s := range specs {
		// Emit due frees first.
		for _, d := range deaths {
			if d.at <= cum && d.at >= 0 {
				tr.Events = append(tr.Events, trace.Event{Kind: trace.KindFree, Obj: d.obj})
			}
		}
		kept := deaths[:0]
		for _, d := range deaths {
			if !(d.at <= cum && d.at >= 0) {
				kept = append(kept, d)
			}
		}
		deaths = kept
		tr.Events = append(tr.Events, trace.Event{
			Kind:  trace.KindAlloc,
			Obj:   trace.ObjectID(i),
			Size:  s.size,
			Chain: tb.InternNames(s.chain...),
			Refs:  s.refs,
		})
		cum += s.size
		if s.life >= 0 {
			deaths = append(deaths, death{at: cum + s.life, obj: trace.ObjectID(i)})
		}
	}
	for _, d := range deaths {
		if d.at <= cum {
			tr.Events = append(tr.Events, trace.Event{Kind: trace.KindFree, Obj: d.obj})
		}
	}
	if err := trace.Validate(tr); err != nil {
		t.Fatalf("mkTrace built invalid trace: %v", err)
	}
	return tr
}

func TestTrainBasicSiteStats(t *testing.T) {
	// Two sites: "short" objects die immediately, "long" objects never.
	specs := []allocSpec{
		{[]string{"main", "a", "malloc"}, 16, 0, 5},
		{[]string{"main", "a", "malloc"}, 16, 0, 5},
		{[]string{"main", "b", "malloc"}, 32, -1, 9},
		{[]string{"main", "a", "malloc"}, 16, 0, 5},
		// Padding to push the trace length far past the threshold so
		// the long object's observed lifetime exceeds it.
		{[]string{"main", "pad", "malloc"}, 40000, 0, 0},
	}
	tr := mkTrace(t, specs)
	db, err := Train(tr, Config{ShortThreshold: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSites() != 3 {
		t.Fatalf("NumSites = %d, want 3", db.NumSites())
	}
	p := db.Predictor()
	aChain := tr.Table.InternNames("main", "a", "malloc")
	bChain := tr.Table.InternNames("main", "b", "malloc")
	if !p.PredictShort(aChain, 16) {
		t.Error("all-short site not predicted")
	}
	if p.PredictShort(bChain, 32) {
		t.Error("immortal site predicted short")
	}
	if p.PredictShort(aChain, 24) {
		t.Error("unseen size predicted short")
	}
}

func TestSizeRoundingInKeys(t *testing.T) {
	// Sizes 13 and 15 round to 16: one site. Size 17 rounds to 20.
	specs := []allocSpec{
		{[]string{"main", "a", "m"}, 13, 0, 0},
		{[]string{"main", "a", "m"}, 15, 0, 0},
		{[]string{"main", "a", "m"}, 17, 0, 0},
	}
	tr := mkTrace(t, specs)
	db, err := Train(tr, Config{ShortThreshold: 1000, SizeRounding: 4})
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSites() != 2 {
		t.Fatalf("NumSites = %d, want 2 (13 and 15 share a rounded site)", db.NumSites())
	}
	p := db.Predictor()
	c := tr.Table.InternNames("main", "a", "m")
	if !p.PredictShort(c, 14) {
		t.Error("size 14 should hit the rounded-16 site")
	}
}

func TestMixedSiteNotAdmitted(t *testing.T) {
	specs := []allocSpec{
		{[]string{"main", "mix", "m"}, 16, 0, 0},
		{[]string{"main", "mix", "m"}, 16, -1, 0}, // long
		{[]string{"main", "mix", "m"}, 16, 0, 0},
		{[]string{"main", "pad", "m"}, 50000, 0, 0},
	}
	tr := mkTrace(t, specs)
	db, _ := Train(tr, Config{ShortThreshold: 1000})
	p := db.Predictor()
	if p.PredictShort(tr.Table.InternNames("main", "mix", "m"), 16) {
		t.Fatal("mixed site admitted under the all-short rule")
	}
	// With a 0.5 admission fraction it should be admitted (2/3 short).
	db2, _ := Train(tr, Config{ShortThreshold: 1000, AdmitFraction: 0.5})
	if !db2.Predictor().PredictShort(tr.Table.InternNames("main", "mix", "m"), 16) {
		t.Fatal("mixed site not admitted at AdmitFraction 0.5")
	}
}

func TestChainLengthConflation(t *testing.T) {
	// Short site ends ...>caller1>xmalloc, long site ends
	// ...>caller2>xmalloc — both with the same size. At length 1 (just
	// xmalloc) they conflate, so nothing is predicted; at length 2 the
	// short site separates.
	specs := []allocSpec{
		{[]string{"main", "work", "caller1", "xmalloc"}, 16, 0, 0},
		{[]string{"main", "work", "caller1", "xmalloc"}, 16, 0, 0},
		{[]string{"main", "boot", "caller2", "xmalloc"}, 16, -1, 0},
		{[]string{"main", "pad", "m"}, 50000, 0, 0},
	}
	tr := mkTrace(t, specs)
	shortChain := tr.Table.InternNames("main", "work", "caller1", "xmalloc")

	db1, _ := Train(tr, Config{ShortThreshold: 1000, ChainLength: 1})
	if db1.Predictor().PredictShort(shortChain, 16) {
		t.Error("length-1 predictor separated conflated sites")
	}
	db2, _ := Train(tr, Config{ShortThreshold: 1000, ChainLength: 2})
	if !db2.Predictor().PredictShort(shortChain, 16) {
		t.Error("length-2 predictor failed to separate sites")
	}
}

func TestRecursionEliminationOnlyForCompleteChains(t *testing.T) {
	// Short site's raw chain [main rec f rec leaf] eliminates to
	// [main rec leaf], which equals the long site's chain. The complete
	// chain conflates them; length-3 sub-chains (no elimination) do not.
	specs := []allocSpec{
		{[]string{"main", "rec", "f", "rec", "leaf"}, 16, 0, 0},
		{[]string{"main", "rec", "f", "rec", "leaf"}, 16, 0, 0},
		{[]string{"main", "rec", "leaf"}, 16, -1, 0},
		{[]string{"main", "pad", "m"}, 50000, 0, 0},
	}
	tr := mkTrace(t, specs)
	shortChain := tr.Table.InternNames("main", "rec", "f", "rec", "leaf")

	dbInf, _ := Train(tr, Config{ShortThreshold: 1000, ChainLength: 0})
	if dbInf.Predictor().PredictShort(shortChain, 16) {
		t.Error("complete-chain predictor should conflate via recursion elimination")
	}
	db3, _ := Train(tr, Config{ShortThreshold: 1000, ChainLength: 3})
	if !db3.Predictor().PredictShort(shortChain, 16) {
		t.Error("length-3 predictor should separate the recursive site")
	}
}

func TestSizeOnlyPredictor(t *testing.T) {
	specs := []allocSpec{
		{[]string{"main", "a", "m"}, 16, 0, 0},  // short, size 16
		{[]string{"main", "b", "m"}, 16, -1, 0}, // long, size 16
		{[]string{"main", "c", "m"}, 64, 0, 0},  // short, size 64 (unique)
		{[]string{"main", "pad", "m"}, 50000, 0, 0},
	}
	tr := mkTrace(t, specs)
	db, _ := Train(tr, Config{ShortThreshold: 1000, SizeOnly: true})
	p := db.Predictor()
	if p.PredictShort(tr.Table.InternNames("main", "a", "m"), 16) {
		t.Error("size 16 is mixed across chains; size-only must reject it")
	}
	if !p.PredictShort(tr.Table.InternNames("zzz"), 64) {
		t.Error("unique all-short size 64 should be predicted regardless of chain")
	}
}

func TestCrossTableMapping(t *testing.T) {
	// Train and test traces in separate tables with different interning
	// orders; mapping must go by function names.
	train := mkTrace(t, []allocSpec{
		{[]string{"main", "hot", "m"}, 16, 0, 0},
		{[]string{"main", "cold", "m"}, 32, -1, 0},
		{[]string{"main", "pad", "m"}, 50000, 0, 0},
	})
	db, _ := Train(train, Config{ShortThreshold: 1000})
	p := db.Predictor()

	test := mkTrace(t, []allocSpec{
		{[]string{"main", "cold", "m"}, 32, -1, 0}, // different intern order
		{[]string{"main", "hot", "m"}, 16, 0, 0},
		{[]string{"main", "hot", "m"}, 16, 0, 0},
		{[]string{"main", "newsite", "m"}, 16, 0, 0},
		{[]string{"main", "pad", "m"}, 50000, 0, 0},
	})
	ev, err := Evaluate(test, p)
	if err != nil {
		t.Fatal(err)
	}
	// hot(16+16) predicted of total 16+16+16+32+50000.
	if ev.PredictedShortBytes != 32 {
		t.Errorf("PredictedShortBytes = %d, want 32", ev.PredictedShortBytes)
	}
	if ev.ErrorBytes != 0 {
		t.Errorf("ErrorBytes = %d, want 0", ev.ErrorBytes)
	}
	if ev.SitesUsed != 1 {
		t.Errorf("SitesUsed = %d, want 1", ev.SitesUsed)
	}
	if ev.TotalSites != 4 {
		t.Errorf("TotalSites = %d, want 4", ev.TotalSites)
	}
}

func TestEvaluateErrorBytes(t *testing.T) {
	train := mkTrace(t, []allocSpec{
		{[]string{"main", "site", "m"}, 16, 0, 0},
		{[]string{"main", "pad", "m"}, 50000, 0, 0},
	})
	db, _ := Train(train, Config{ShortThreshold: 1000})
	p := db.Predictor()

	// In the test run the same site allocates a long-lived object.
	test := mkTrace(t, []allocSpec{
		{[]string{"main", "site", "m"}, 16, 0, 0},
		{[]string{"main", "site", "m"}, 16, -1, 0},
		{[]string{"main", "pad", "m"}, 50000, 0, 0},
	})
	ev, err := Evaluate(test, p)
	if err != nil {
		t.Fatal(err)
	}
	if ev.PredictedShortBytes != 16 {
		t.Errorf("PredictedShortBytes = %d, want 16", ev.PredictedShortBytes)
	}
	if ev.ErrorBytes != 16 {
		t.Errorf("ErrorBytes = %d, want 16", ev.ErrorBytes)
	}
	if ev.PredictedBytes != 32 {
		t.Errorf("PredictedBytes = %d, want 32", ev.PredictedBytes)
	}
}

func TestEvalPercentages(t *testing.T) {
	e := Eval{
		TotalBytes:          1000,
		ActualShortBytes:    900,
		PredictedShortBytes: 800,
		ErrorBytes:          50,
		PredictedRefs:       30,
		TotalRefs:           120,
	}
	if got := e.ActualShortPct(); got != 90 {
		t.Errorf("ActualShortPct = %v", got)
	}
	if got := e.PredictedShortPct(); got != 80 {
		t.Errorf("PredictedShortPct = %v", got)
	}
	if got := e.ErrorPct(); got != 5 {
		t.Errorf("ErrorPct = %v", got)
	}
	if got := e.NewRefPct(); got != 25 {
		t.Errorf("NewRefPct = %v", got)
	}
	var zero Eval
	if zero.ActualShortPct() != 0 || zero.NewRefPct() != 0 {
		t.Error("zero Eval percentages should be 0")
	}
}

func TestSiteHistogramQuartiles(t *testing.T) {
	// A site with exact lifetimes 100, 200, ..., 1000.
	tb := callchain.NewTable()
	c := tb.InternNames("main", "s", "m")
	var objs []trace.Object
	for i := 1; i <= 10; i++ {
		objs = append(objs, trace.Object{
			ID: trace.ObjectID(i), Size: 8, Chain: c,
			Lifetime: int64(i * 100), Freed: true,
		})
	}
	db := TrainObjects(tb, objs, Config{ShortThreshold: 1 << 20})
	key := SiteKey{Chain: db.Config.siteChain(tb, c), Size: 8}
	st := db.Sites[key]
	if st == nil {
		t.Fatal("site not found")
	}
	if st.Objects != 10 {
		t.Fatalf("Objects = %d, want 10", st.Objects)
	}
	med := st.Hist.Quantile(0.5)
	if med < 400 || med > 700 {
		t.Errorf("median lifetime estimate %v, want ~500-600", med)
	}
	if st.MaxLifetime != 1000 {
		t.Errorf("MaxLifetime = %d, want 1000", st.MaxLifetime)
	}
}

func TestLifetimeQuantilesExact(t *testing.T) {
	objs := []trace.Object{
		{Size: 10, Lifetime: 100},
		{Size: 10, Lifetime: 200},
		{Size: 10, Lifetime: 300},
		{Size: 70, Lifetime: 50},
	}
	// Object-weighted median: lifetimes {50,100,200,300} -> ~150.
	q := LifetimeQuantiles(objs, []float64{0.5}, false)
	if q[0] != 100 && q[0] != 200 {
		t.Errorf("object-weighted median = %v", q[0])
	}
	// Byte-weighted: 70 of 100 bytes have lifetime 50, so median is 50.
	q = LifetimeQuantiles(objs, []float64{0.5}, true)
	if q[0] != 50 {
		t.Errorf("byte-weighted median = %v, want 50", q[0])
	}
	// Extremes.
	q = LifetimeQuantiles(objs, []float64{0, 1}, true)
	if q[0] != 50 || q[1] != 300 {
		t.Errorf("min/max = %v/%v, want 50/300", q[0], q[1])
	}
}

func TestLifetimeQuantilesEmpty(t *testing.T) {
	q := LifetimeQuantiles(nil, []float64{0.5}, true)
	if !math.IsNaN(q[0]) {
		t.Fatalf("empty quantile = %v, want NaN", q[0])
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if c.ShortThreshold != 32<<10 || c.SizeRounding != 4 || c.AdmitFraction != 1.0 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	// withDefaults fills zero values the same way.
	var z Config
	z = z.withDefaults()
	if z != c {
		t.Fatalf("withDefaults mismatch: %+v vs %+v", z, c)
	}
}

func TestRoundSize(t *testing.T) {
	c := Config{SizeRounding: 4}
	cases := map[int64]int64{1: 4, 4: 4, 5: 8, 17: 20, 0: 0}
	for in, want := range cases {
		if got := c.roundSize(in); got != want {
			t.Errorf("roundSize(%d) = %d, want %d", in, got, want)
		}
	}
	c1 := Config{SizeRounding: 1}
	if got := c1.roundSize(17); got != 17 {
		t.Errorf("rounding 1 should be identity, got %d", got)
	}
}
