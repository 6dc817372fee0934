package profile

import (
	"fmt"
	"testing"

	"repro/internal/callchain"
	"repro/internal/synth"
	"repro/internal/trace"
)

// strictTrainers returns every zoo policy configured to coincide with the
// paper's global all-short rule: quantile at Q=1 with no per-site slack,
// window unbounded with Q=1, learned fitting the paper labels exactly.
// The paper trainer itself is the reference.
func strictTrainers() []OracleTrainer {
	return []OracleTrainer{
		{Name: "paper", Train: func(db *DB, _ *trace.Trace) (Oracle, error) {
			return db.Predictor(), nil
		}},
		{Name: "quantile", Train: func(db *DB, _ *trace.Trace) (Oracle, error) {
			return db.QuantilePredictor(QuantileConfig{Q: 1.0}), nil
		}},
		{Name: "window", Train: func(db *DB, tr *trace.Trace) (Oracle, error) {
			return TrainWindowed(trace.NewSliceSource(tr), db.Config, WindowedConfig{Window: 0, Q: 1.0})
		}},
		{Name: "learned", Train: func(db *DB, _ *trace.Trace) (Oracle, error) {
			return TrainLearned(db), nil
		}},
	}
}

// trainZoo trains one site database on tr under cfg and derives zt's
// policy from it, as the tournament and the conformance gate do.
func trainZoo(zt OracleTrainer, tr *trace.Trace, cfg Config) (Oracle, error) {
	db, err := Train(tr, cfg)
	if err != nil {
		return nil, err
	}
	return zt.Train(db, tr)
}

// TestZooSingleSiteAgreesWithPaperRule: on single-site traces every zoo
// policy — strict or default tournament configuration — must reproduce
// the paper's global rule, because there is nothing per-site to diverge
// on.
func TestZooSingleSiteAgreesWithPaperRule(t *testing.T) {
	cfg := Config{ShortThreshold: 1000}
	cases := []struct {
		name  string
		specs []allocSpec
		size  int64
		admit bool
	}{
		{
			name: "all-short",
			specs: []allocSpec{
				{[]string{"main", "s", "m"}, 16, 0, 0},
				{[]string{"main", "s", "m"}, 16, 0, 0},
				{[]string{"main", "s", "m"}, 16, 0, 0},
			},
			size:  16,
			admit: true,
		},
		{
			name: "all-long",
			specs: []allocSpec{
				{[]string{"main", "s", "m"}, 16, -1, 0},
				{[]string{"main", "s", "m"}, 16, -1, 0},
				{[]string{"main", "s", "m"}, 50000, 0, 0}, // pad, same site
			},
			size:  16,
			admit: false,
		},
	}
	for _, tc := range cases {
		for _, reg := range []struct {
			name     string
			trainers []OracleTrainer
		}{{"strict", strictTrainers()}, {"default", ZooTrainers()}} {
			for _, tr := range reg.trainers {
				t.Run(fmt.Sprintf("%s/%s/%s", tc.name, reg.name, tr.Name), func(t *testing.T) {
					tt := mkTrace(t, tc.specs)
					o, err := trainZoo(tr, tt, cfg)
					if err != nil {
						t.Fatal(err)
					}
					chain := tt.Table.InternNames("main", "s", "m")
					if got := o.PredictShort(chain, tc.size); got != tc.admit {
						t.Errorf("%s predicts %v, paper rule says %v", tr.Name, got, tc.admit)
					}
					if thr := o.ShortThreshold(); thr != 1000 {
						t.Errorf("ShortThreshold = %d, want 1000", thr)
					}
				})
			}
		}
	}
}

// zooTrace is the shared multi-site fixture: a clean short site, a clean
// long site, a mostly-short site with one long outlier, and padding that
// stretches the byte clock past any threshold.
func zooTrace(t *testing.T) *trace.Trace {
	t.Helper()
	return mkTrace(t, []allocSpec{
		{[]string{"main", "hot", "m"}, 16, 0, 0},
		{[]string{"main", "hot", "m"}, 16, 0, 0},
		{[]string{"main", "hot", "m"}, 16, 0, 0},
		{[]string{"main", "cold", "m"}, 32, -1, 0},
		{[]string{"main", "mix", "m"}, 24, 0, 0},
		{[]string{"main", "mix", "m"}, 24, 0, 0},
		{[]string{"main", "mix", "m"}, 24, -1, 0},
		{[]string{"main", "big", "m"}, 48, 100, 0},
		{[]string{"main", "pad", "m"}, 50000, 0, 0},
	})
}

// TestQuantileAdmissionsMonotoneInThreshold: raising the threshold can
// only grow the admitted site set, at Q=1 (exact max) and at an interior
// quantile (P² estimate) alike. Each threshold trains its own database;
// the site keys, maxima and histograms the policy reads do not depend on
// the threshold, only the admission bound does.
func TestQuantileAdmissionsMonotoneInThreshold(t *testing.T) {
	tr := zooTrace(t)
	for _, q := range []float64{1.0, 0.75, 0.5} {
		var prev map[SiteKey]bool
		admittedAny := false
		for _, thr := range []int64{1, 50, 1000, 40000, 1 << 40} {
			db, err := Train(tr, Config{ShortThreshold: thr})
			if err != nil {
				t.Fatal(err)
			}
			cur := make(map[SiteKey]bool)
			o := db.QuantilePredictor(QuantileConfig{Q: q})
			for key := range db.Sites {
				cur[key] = o.AdmitSite(key)
				if cur[key] {
					admittedAny = true
				}
			}
			for key, was := range prev {
				if was && !cur[key] {
					t.Errorf("q=%v: site %+v admitted at lower threshold but not at %d", q, key, thr)
				}
			}
			prev = cur
		}
		for key, ok := range prev {
			if !ok {
				t.Errorf("q=%v: site %+v rejected even at an effectively infinite threshold", q, key)
			}
		}
		if !admittedAny {
			t.Errorf("q=%v: no site ever admitted", q)
		}
	}
}

// TestWindowedUnboundedEqualsQuantile: with an unbounded window and Q=1
// the windowed rule keeps exactly the batch statistics, so its predictor
// must agree with the batch quantile predictor at Q=1 (and hence the
// paper rule) on every site — including unseen probes — and admit the
// same number of sites.
func TestWindowedUnboundedEqualsQuantile(t *testing.T) {
	tr := zooTrace(t)
	cfg := Config{ShortThreshold: 1000}
	db, err := Train(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := db.QuantilePredictor(QuantileConfig{Q: 1.0})
	win, err := TrainWindowed(trace.NewSliceSource(tr), cfg, WindowedConfig{Window: 0, Q: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	probes := []struct {
		chain []string
		size  int64
	}{
		{[]string{"main", "hot", "m"}, 16},
		{[]string{"main", "hot", "m"}, 24}, // unseen size at a hot chain
		{[]string{"main", "cold", "m"}, 32},
		{[]string{"main", "mix", "m"}, 24},
		{[]string{"main", "big", "m"}, 48},
		{[]string{"main", "pad", "m"}, 50000},
		{[]string{"main", "never", "m"}, 8}, // unseen site
	}
	for _, p := range probes {
		chain := tr.Table.InternNames(p.chain...)
		b := batch.PredictShort(chain, p.size)
		w := win.PredictShort(chain, p.size)
		if b != w {
			t.Errorf("site %v/%d: batch=%v windowed=%v", p.chain, p.size, b, w)
		}
	}
	if win.NumSites() != batch.NumSites() || batch.NumSites() == 0 {
		t.Errorf("windowed admitted %d sites, batch admitted %d", win.NumSites(), batch.NumSites())
	}
}

// TestWindowedDrift: a site that turns short after a long-lived phase is
// re-admitted by a bounded window once the long observations age out,
// while the batch rule never forgives.
func TestWindowedDrift(t *testing.T) {
	specs := make([]allocSpec, 0, 40)
	// Phase 1: 8 long-lived objects. They die mid-trace, after the pad
	// stretches the clock, so the online oracle sees their long deaths
	// BEFORE phase 2's short ones (training is in death order).
	for i := 0; i < 8; i++ {
		specs = append(specs, allocSpec{[]string{"main", "phase", "m"}, 16, 30000, 0})
	}
	specs = append(specs, allocSpec{[]string{"main", "pad", "m"}, 40000, 0, 0})
	// Phase 2: 24 short-lived objects at the same site.
	for i := 0; i < 24; i++ {
		specs = append(specs, allocSpec{[]string{"main", "phase", "m"}, 16, 0, 0})
	}
	tr := mkTrace(t, specs)
	cfg := Config{ShortThreshold: 1000}
	chain := tr.Table.InternNames("main", "phase", "m")

	bounded, err := TrainWindowed(trace.NewSliceSource(tr), cfg, WindowedConfig{Window: 16, Q: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if !bounded.PredictShort(chain, 16) {
		t.Error("window=16 still rejects the site after 24 consecutive short deaths")
	}
	unbounded, err := TrainWindowed(trace.NewSliceSource(tr), cfg, WindowedConfig{Window: 0, Q: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.PredictShort(chain, 16) {
		t.Error("unbounded window admitted a site with long-lived history")
	}
}

// TestZooCrossTableMapping: every zoo policy must survive the paper's
// by-name site mapping onto a trace interned in a different order.
func TestZooCrossTableMapping(t *testing.T) {
	train := zooTrace(t)
	cfg := Config{ShortThreshold: 1000}
	// Same program, different intern order, one unseen site.
	test := mkTrace(t, []allocSpec{
		{[]string{"main", "cold", "m"}, 32, -1, 0},
		{[]string{"main", "hot", "m"}, 16, 0, 0},
		{[]string{"main", "fresh", "m"}, 16, 0, 0},
		{[]string{"main", "pad", "m"}, 50000, 0, 0},
	})
	hot := test.Table.InternNames("main", "hot", "m")
	cold := test.Table.InternNames("main", "cold", "m")
	for _, tr := range strictTrainers() {
		t.Run(tr.Name, func(t *testing.T) {
			o, err := trainZoo(tr, train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			bound := BindOracle(o, test.Table)
			if !bound.PredictShort(hot, 16) {
				t.Error("mapped oracle rejects the all-short site")
			}
			if tr.Name != "learned" && bound.PredictShort(cold, 32) {
				t.Error("mapped oracle admits the immortal site")
			}
			if bound.ShortThreshold() != 1000 {
				t.Errorf("mapped ShortThreshold = %d", bound.ShortThreshold())
			}
		})
	}
}

// TestBindOracleIdentity: binding maps every site oracle through a
// Mapper — the four zoo policies, whichever table they are bound to —
// and leaves an oracle that does not key by site, CCEPredictor, as
// itself.
func TestBindOracleIdentity(t *testing.T) {
	tr := zooTrace(t)
	cfg := Config{ShortThreshold: 1000}
	other := zooTrace(t)
	for _, zt := range ZooTrainers() {
		o, err := trainZoo(zt, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range []*callchain.Table{tr.Table, other.Table} {
			if _, ok := BindOracle(o, tb).(*Mapper); !ok {
				t.Errorf("%s: site oracle %T should bind to a Mapper", zt.Name, o)
			}
		}
	}
	objs, err := trace.Annotate(tr)
	if err != nil {
		t.Fatal(err)
	}
	cce, _ := TrainCCE(tr.Table, objs, cfg, 7)
	if got := BindOracle(cce, other.Table); got != Oracle(cce) {
		t.Errorf("CCEPredictor bound to %T, want itself", got)
	}
}

// TestLearnedDeterministicAndTotal: double training yields bit-identical
// weights, and unseen sites still get a verdict.
func TestLearnedDeterministicAndTotal(t *testing.T) {
	tr := zooTrace(t)
	db, err := Train(tr, Config{ShortThreshold: 1000})
	if err != nil {
		t.Fatal(err)
	}
	a := TrainLearned(db)
	b := TrainLearned(db)
	for i := range a.w {
		if a.w[i] != b.w[i] {
			t.Fatalf("weight %d differs across identical trainings: %v vs %v", i, a.w[i], b.w[i])
		}
	}
	// Totality: a never-interned chain id and absurd sizes must not panic.
	fresh := tr.Table.InternNames("totally", "new", "site")
	_ = a.PredictShort(fresh, 7)
	_ = a.PredictShort(fresh, 1<<40)
}

// confusion counts object-level prediction outcomes for one oracle over
// an annotated trace.
type confusion struct {
	TP, FP, TN, FN int64
}

// TestZooPinnedConfusionMatrices trains the default tournament zoo on the
// fixture and pins each policy's confusion matrix on a drifted test trace
// (same sites re-interned in a different order, one site flips behaviour,
// one site is new). Any change to a policy's admission semantics shows up
// here as an exact count diff.
func TestZooPinnedConfusionMatrices(t *testing.T) {
	train := zooTrace(t)
	cfg := Config{ShortThreshold: 1000}
	test := mkTrace(t, []allocSpec{
		{[]string{"main", "cold", "m"}, 32, -1, 0},
		{[]string{"main", "hot", "m"}, 16, 0, 0},
		{[]string{"main", "hot", "m"}, 16, 0, 0},
		{[]string{"main", "mix", "m"}, 24, 0, 0},
		{[]string{"main", "mix", "m"}, 24, -1, 0},
		{[]string{"main", "big", "m"}, 48, -1, 0}, // flipped: long in test
		{[]string{"main", "fresh", "m"}, 16, 0, 0},
		{[]string{"main", "pad", "m"}, 50000, 0, 0},
	})
	objs, err := trace.Annotate(test)
	if err != nil {
		t.Fatal(err)
	}
	// The one disagreement is instructive: quantile's per-site slack
	// (8 bytes of threshold per byte of size) admits the 50000-byte pad
	// site that every global-threshold policy rejects, costing it a
	// false positive on the test run.
	want := map[string]confusion{
		"paper":    {TP: 2, FP: 0, TN: 4, FN: 2},
		"quantile": {TP: 2, FP: 1, TN: 3, FN: 2},
		"window":   {TP: 2, FP: 0, TN: 4, FN: 2},
		"learned":  {TP: 2, FP: 0, TN: 4, FN: 2},
	}
	for _, tr := range ZooTrainers() {
		t.Run(tr.Name, func(t *testing.T) {
			o, err := trainZoo(tr, train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			bound := BindOracle(o, test.Table)
			var got confusion
			for i := range objs {
				obj := &objs[i]
				pred := bound.PredictShort(obj.Chain, obj.Size)
				actual := obj.Lifetime < bound.ShortThreshold()
				switch {
				case pred && actual:
					got.TP++
				case pred && !actual:
					got.FP++
				case !pred && !actual:
					got.TN++
				default:
					got.FN++
				}
			}
			if got != want[tr.Name] {
				t.Errorf("confusion matrix = %+v, want %+v", got, want[tr.Name])
			}
		})
	}
}

// TestMapperCacheMatchesAdmitSite: the Mapper caches each (raw chain,
// rounded size) verdict, which is exact only because no oracle changes
// after training. For every allocation of perl's Test trace, with
// complete and length-3 chains, both cached answers — PredictShort and
// Site — must equal the oracle's own uncached AdmitSite on the key the
// allocation maps to. It covers the paper's Predictor and the
// LearnedOracle, the one policy that is not a set of admitted sites.
func TestMapperCacheMatchesAdmitSite(t *testing.T) {
	m := synth.ByName("perl")
	gen := func(in synth.Input, seed uint64) *trace.Trace {
		tr, err := m.Generate(synth.Config{Input: in, Seed: seed, Scale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	train, test := gen(synth.Train, 1), gen(synth.Test, 2)
	for _, cfg := range []Config{DefaultConfig(), {ChainLength: 3}} {
		db, err := Train(train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg = db.Config
		for _, o := range []SiteOracle{db.Predictor(), TrainLearned(db)} {
			mapper := NewMapper(o, test.Table)
			short := 0
			for i, ev := range test.Events {
				if ev.Kind != trace.KindAlloc {
					continue
				}
				want := SiteKey{
					Chain: o.Table().InternFrom(test.Table, cfg.siteChain(test.Table, ev.Chain)),
					Size:  cfg.roundSize(ev.Size),
				}
				admit := o.AdmitSite(want)
				if got := mapper.PredictShort(ev.Chain, ev.Size); got != admit {
					t.Fatalf("%T, chain length %d, event %d: PredictShort = %v, AdmitSite(%+v) = %v",
						o, cfg.ChainLength, i, got, want, admit)
				}
				if key, got := mapper.Site(ev.Chain, ev.Size); key != want || got != admit {
					t.Fatalf("%T, chain length %d, event %d: Site = %+v,%v; want %+v,%v",
						o, cfg.ChainLength, i, key, got, want, admit)
				}
				if admit {
					short++
				}
			}
			if short == 0 || mapper.SitesMatched() == 0 {
				t.Fatalf("%T, chain length %d: no allocation predicted short (%d sites matched); the comparison is vacuous",
					o, cfg.ChainLength, mapper.SitesMatched())
			}
		}
	}
}
