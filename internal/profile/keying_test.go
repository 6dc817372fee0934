package profile

import (
	"fmt"
	"testing"

	"repro/internal/callchain"
	"repro/internal/synth"
	"repro/internal/trace"
)

// keyingInput builds one trace afresh on every call, so two keyings can
// start from identical chain tables and be compared id for id.
type keyingInput struct {
	name  string
	build func(t *testing.T) *trace.Trace
}

// keyingInputs are a synthetic model's Train input and a hand-built trace
// whose chains recurse, so that recursion elimination rewrites ids.
func keyingInputs() []keyingInput {
	return []keyingInput{
		{"espresso", func(t *testing.T) *trace.Trace {
			tr, err := synth.ByName("espresso").Generate(synth.Config{Input: synth.Train, Seed: 1, Scale: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
		{"recursive", func(t *testing.T) *trace.Trace {
			var specs []allocSpec
			for i := 0; i < 40; i++ {
				life := int64(0)
				if i%5 == 0 {
					life = 50000
				}
				specs = append(specs,
					allocSpec{[]string{"main", "a", "b", "a", "b", "xmalloc"}, 16 + int64(i%3), life, 1},
					allocSpec{[]string{"main", "a", "b", "xmalloc"}, 16, 0, 2},
					allocSpec{[]string{"main", "eval", "apply", "eval", "apply", "eval", "cons", "xmalloc"}, 24, 0, 0},
					allocSpec{[]string{"init", "parse", "parse", "xmalloc"}, 40, -1, 3},
				)
			}
			return mkTrace(t, specs)
		}},
	}
}

// keyingConfigs covers every chain abstraction: the complete chain, the
// last 1..8 callers and size alone.
func keyingConfigs() []Config {
	var cfgs []Config
	for n := 0; n <= 8; n++ {
		cfgs = append(cfgs, Config{ChainLength: n})
	}
	return append(cfgs, Config{SizeOnly: true})
}

func annotate(t *testing.T, tr *trace.Trace) []trace.Object {
	t.Helper()
	objs, err := trace.Annotate(tr)
	if err != nil {
		t.Fatal(err)
	}
	return objs
}

// perObjectSites is the reference keying: every object keyed afresh
// through Config.siteChain, in the given order, with the site statistics
// addObject keeps (the quantile histogram aside).
func perObjectSites(tr *trace.Trace, objs []trace.Object, cfg Config) map[SiteKey]*SiteStats {
	cfg = cfg.withDefaults()
	sites := make(map[SiteKey]*SiteStats)
	for i := range objs {
		o := &objs[i]
		key := SiteKey{Chain: cfg.siteChain(tr.Table, o.Chain), Size: cfg.roundSize(o.Size)}
		st := sites[key]
		if st == nil {
			st = &SiteStats{}
			sites[key] = st
		}
		st.Objects++
		st.Bytes += o.Size
		st.Refs += o.Refs
		st.MaxLifetime = max(st.MaxLifetime, o.Lifetime)
		if o.Lifetime < cfg.ShortThreshold {
			st.ShortCount++
			st.ShortBytes += o.Size
		}
	}
	return sites
}

// TestTrainKeyingMatchesPerObjectKeying: keying each raw chain once per
// training call or Mapper gives exactly the sites per-object keying does.
// Training interns the same derived chains in the same order, so the
// keys agree id for id; the windowed policy admits the same keys; and
// evaluation counts the same distinct and matched sites.
func TestTrainKeyingMatchesPerObjectKeying(t *testing.T) {
	rec := keyingInputs()[1].build(t)
	rewritten := 0
	for id := 1; id < rec.Table.NumChains(); id++ {
		if c := callchain.ChainID(id); rec.Table.EliminateRecursion(c) != c {
			rewritten++
		}
	}
	if rewritten == 0 {
		t.Fatal("no chain of the recursive input recurses; the complete-chain case is vacuous")
	}
	for _, in := range keyingInputs() {
		for _, cfg := range keyingConfigs() {
			t.Run(fmt.Sprintf("%s/length%d/sizeonly=%v", in.name, cfg.ChainLength, cfg.SizeOnly), func(t *testing.T) {
				got, ref := in.build(t), in.build(t)
				db := TrainObjects(got.Table, annotate(t, got), cfg)
				want := perObjectSites(ref, annotate(t, ref), cfg)
				if g, w := got.Table.NumChains(), ref.Table.NumChains(); g != w {
					t.Fatalf("training interned %d chains, per-object keying %d", g, w)
				}
				if len(db.Sites) != len(want) {
					t.Fatalf("training keyed %d sites, per-object keying %d", len(db.Sites), len(want))
				}
				for k, w := range want {
					g := db.Sites[k]
					if g == nil {
						t.Fatalf("site %+v (%s) missing from the trained database", k, ref.Table.String(k.Chain))
					}
					if g.Objects != w.Objects || g.Bytes != w.Bytes || g.ShortCount != w.ShortCount ||
						g.ShortBytes != w.ShortBytes || g.Refs != w.Refs || g.MaxLifetime != w.MaxLifetime {
						t.Fatalf("site %+v: trained %+v, per-object %+v", k, *g, *w)
					}
				}

				// The windowed policy sees objects in death order; key the
				// reference in that order too.
				winTr, deathTr := in.build(t), in.build(t)
				wc := WindowedConfig{Q: 0.95}
				win, err := TrainWindowed(trace.NewSliceSource(winTr), cfg, wc)
				if err != nil {
					t.Fatal(err)
				}
				var died []trace.Object
				if err := trace.AnnotateStream(trace.NewSliceSource(deathTr), func(o trace.Object) error {
					died = append(died, o)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				admitted := 0
				for k, w := range perObjectSites(deathTr, died, cfg) {
					admit := float64(w.ShortCount) >= wc.Q*float64(w.Objects)
					if admit {
						admitted++
					}
					if win.AdmitSite(k) != admit {
						t.Fatalf("windowed policy: site %+v (%s) admitted = %v, want %v",
							k, deathTr.Table.String(k.Chain), win.AdmitSite(k), admit)
					}
				}
				if win.NumSites() != admitted {
					t.Fatalf("windowed policy admitted %d sites, per-object keying %d", win.NumSites(), admitted)
				}

				// Evaluation maps another build's chains into the
				// predictor's table; count its sites per object.
				evTr := in.build(t)
				evObjs := annotate(t, evTr)
				p := db.Predictor()
				ev := EvaluateObjects(evTr.Table, evObjs, p)
				pc := p.Config
				seen := make(map[SiteKey]bool)
				used := 0
				for i := range evObjs {
					o := &evObjs[i]
					k := SiteKey{
						Chain: p.Table().InternFrom(evTr.Table, pc.siteChain(evTr.Table, o.Chain)),
						Size:  pc.roundSize(o.Size),
					}
					if !seen[k] {
						seen[k] = true
						if p.AdmitSite(k) {
							used++
						}
					}
				}
				if ev.TotalSites != len(seen) || ev.SitesUsed != used {
					t.Fatalf("EvaluateObjects: %d sites, %d used; per-object keying %d, %d",
						ev.TotalSites, ev.SitesUsed, len(seen), used)
				}
				if used == 0 {
					t.Fatal("no site is admitted; the SitesUsed comparison is vacuous")
				}
			})
		}
	}
}

// TestTrainAllocsIndependentOfObjectCount: training derives each raw
// chain's site chain once, so it allocates per site and per chain, never
// per object; training on every object twice allocates exactly as much.
func TestTrainAllocsIndependentOfObjectCount(t *testing.T) {
	tr := keyingInputs()[0].build(t)
	objs := annotate(t, tr)
	twice := append(append([]trace.Object(nil), objs...), objs...)
	for _, n := range []int{0, 1, 3, 7} {
		cfg := Config{ChainLength: n}
		once := testing.AllocsPerRun(5, func() { TrainObjects(tr.Table, objs, cfg) })
		double := testing.AllocsPerRun(5, func() { TrainObjects(tr.Table, twice, cfg) })
		if once != double {
			t.Errorf("chain length %d: training %d objects made %v allocations, the same objects twice %v",
				n, len(objs), once, double)
		}
	}
}
