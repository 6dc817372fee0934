package synth

import (
	"math"
	"testing"

	"repro/internal/callchain"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func TestSizeDistSampling(t *testing.T) {
	r := xrand.New(1)
	cases := []struct {
		name string
		d    SizeDist
		ok   func(int64) bool
		mean float64
	}{
		{"fixed", Fixed(40), func(s int64) bool { return s == 40 }, 40},
		{"choice", Choice(8, 16), func(s int64) bool { return s == 8 || s == 16 }, 12},
		{"step", UniformStep(8, 32, 8), func(s int64) bool { return s >= 8 && s <= 32 && s%8 == 0 }, 20},
	}
	for _, c := range cases {
		sum := 0.0
		for i := 0; i < 20000; i++ {
			s := c.d.sample(r, Train)
			if !c.ok(s) {
				t.Fatalf("%s: bad sample %d", c.name, s)
			}
			sum += float64(s)
		}
		got := sum / 20000
		if math.Abs(got-c.mean) > 0.05*c.mean {
			t.Errorf("%s: mean %.2f, want ~%.2f", c.name, got, c.mean)
		}
		if m := c.d.Mean(Train); math.Abs(m-c.mean) > 1e-9 {
			t.Errorf("%s: Mean() = %v, want %v", c.name, m, c.mean)
		}
	}
}

func TestSizeDistTestDelta(t *testing.T) {
	r := xrand.New(2)
	d := Fixed(16)
	d.TestDelta = 2
	if s := d.sample(r, Train); s != 16 {
		t.Fatalf("train sample = %d, want 16", s)
	}
	if s := d.sample(r, Test); s != 18 {
		t.Fatalf("test sample = %d, want 18", s)
	}
}

func TestSizeDistDistinctSizes(t *testing.T) {
	if got := Fixed(8).DistinctSizes(); got != 1 {
		t.Errorf("Fixed: %d", got)
	}
	if got := Choice(8, 16, 24).DistinctSizes(); got != 3 {
		t.Errorf("Choice: %d", got)
	}
	if got := UniformStep(204, 904, 4).DistinctSizes(); got != 176 {
		t.Errorf("UniformStep: %d, want 176", got)
	}
}

func TestLifeDistSampling(t *testing.T) {
	r := xrand.New(3)
	exp := ExpLife(1000, 5000)
	sum := 0.0
	for i := 0; i < 20000; i++ {
		v := exp.sample(r)
		if v < 1 || v > 5000 {
			t.Fatalf("truncated exp out of range: %d", v)
		}
		sum += float64(v)
	}
	// Truncation pulls the mean below 1000.
	if got := sum / 20000; got < 700 || got > 1000 {
		t.Errorf("truncated exp mean %.1f, want in [700,1000]", got)
	}

	if v := Immortal().sample(r); v != immortal {
		t.Fatalf("immortal sample = %d", v)
	}

	mix := MixLife(0.5, LifeDist{Kind: LifeFixed, Value: 7}, LifeDist{Kind: LifeFixed, Value: 9})
	saw7, saw9 := false, false
	for i := 0; i < 100; i++ {
		switch mix.sample(r) {
		case 7:
			saw7 = true
		case 9:
			saw9 = true
		default:
			t.Fatal("mixture sampled neither component")
		}
	}
	if !saw7 || !saw9 {
		t.Fatal("mixture never sampled one component")
	}
}

func TestGenerateValidTrace(t *testing.T) {
	for _, m := range All() {
		for _, in := range []Input{Train, Test} {
			tr, err := m.Generate(Config{Input: in, Seed: 7, Scale: 0.002})
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name, in, err)
			}
			if err := trace.Validate(tr); err != nil {
				t.Fatalf("%s/%s: invalid trace: %v", m.Name, in, err)
			}
			if len(tr.Events) == 0 {
				t.Fatalf("%s/%s: empty trace", m.Name, in)
			}
			if tr.Program != m.Name || tr.Input != string(in) {
				t.Fatalf("%s/%s: metadata %s/%s", m.Name, in, tr.Program, tr.Input)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	m := CFRAC()
	a, err := m.Generate(Config{Input: Train, Seed: 11, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Generate(Config{Input: Train, Seed: 11, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	m := GAWK()
	a, _ := m.Generate(Config{Input: Train, Seed: 1, Scale: 0.001})
	b, _ := m.Generate(Config{Input: Train, Seed: 2, Scale: 0.001})
	if len(a.Events) == len(b.Events) {
		same := true
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestGenerateScaleControlsVolume(t *testing.T) {
	m := PERL()
	small, _ := m.Generate(Config{Input: Train, Seed: 5, Scale: 0.001})
	big, _ := m.Generate(Config{Input: Train, Seed: 5, Scale: 0.004})
	ss, _ := trace.ComputeStats(small)
	bs, _ := trace.ComputeStats(big)
	ratio := float64(bs.TotalBytes) / float64(ss.TotalBytes)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("4x scale gave %.2fx bytes", ratio)
	}
}

func TestGenerateRejectsBadScale(t *testing.T) {
	if _, err := CFRAC().Generate(Config{Input: Train, Seed: 1, Scale: 0}); err == nil {
		t.Fatal("scale 0 accepted")
	}
}

func TestVariantExpansionDistinctChains(t *testing.T) {
	m := &Model{
		Name:       "t",
		TotalBytes: 50000,
		Sites: []SiteSpec{{
			Chain:    []string{"main", "f#", "alloc"},
			Variants: 4,
			Sizes:    Fixed(16),
			Life:     ExpLife(100, 0),
			ByteFrac: 1,
		}},
	}
	tr, err := m.Generate(Config{Input: Train, Seed: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	chains := map[callchain.ChainID]bool{}
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindAlloc {
			chains[ev.Chain] = true
		}
	}
	if len(chains) != 4 {
		t.Fatalf("got %d distinct chains, want 4", len(chains))
	}
}

func TestTestByteFracZeroRemovesSites(t *testing.T) {
	m := &Model{
		Name:       "t",
		TotalBytes: 100000,
		Sites: []SiteSpec{
			{
				Chain:      []string{"main", "gone", "alloc"},
				Sizes:      Fixed(16),
				Life:       ExpLife(100, 0),
				ByteFrac:   1,
				TestAbsent: true,
			},
			{
				Chain:    []string{"main", "stays", "alloc"},
				Sizes:    Fixed(16),
				Life:     ExpLife(100, 0),
				ByteFrac: 1,
			},
		},
	}
	tr, err := m.Generate(Config{Input: Test, Seed: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events {
		if ev.Kind != trace.KindAlloc {
			continue
		}
		if s := tr.Table.String(ev.Chain); s == "main>gone>alloc" {
			t.Fatal("TestByteFrac=0 site appeared in test input")
		}
	}
}

func TestMinimumLifetimeIsObjectSize(t *testing.T) {
	// A lifetime distribution pinned to 1 byte cannot yield lifetimes
	// below the object's own size.
	m := &Model{
		Name:       "t",
		TotalBytes: 50000,
		Sites: []SiteSpec{{
			Chain:    []string{"main", "f", "alloc"},
			Sizes:    Fixed(100),
			Life:     LifeDist{Kind: LifeFixed, Value: 1},
			ByteFrac: 1,
		}},
	}
	tr, err := m.Generate(Config{Input: Train, Seed: 3, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs, err := trace.Annotate(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if o.Freed && o.Lifetime < o.Size {
			t.Fatalf("object %d: lifetime %d < size %d", o.ID, o.Lifetime, o.Size)
		}
	}
}

func TestImmortalObjectsNeverFreed(t *testing.T) {
	m := &Model{
		Name:       "t",
		TotalBytes: 30000,
		Sites: []SiteSpec{
			{Chain: []string{"main", "im", "alloc"}, Sizes: Fixed(64), Life: Immortal(), ByteFrac: 1},
			{Chain: []string{"main", "sh", "alloc"}, Sizes: Fixed(16), Life: ExpLife(50, 0), ByteFrac: 1},
		},
	}
	tr, err := m.Generate(Config{Input: Train, Seed: 4, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs, err := trace.Annotate(tr)
	if err != nil {
		t.Fatal(err)
	}
	imChain := "main>im>alloc"
	for _, o := range objs {
		if tr.Table.String(o.Chain) == imChain && o.Freed {
			t.Fatal("immortal object was freed")
		}
	}
}

func TestModelMetadata(t *testing.T) {
	names := map[string]bool{}
	for _, m := range All() {
		if m.Name == "" || m.Description == "" {
			t.Errorf("model missing metadata: %+v", m.Name)
		}
		if names[m.Name] {
			t.Errorf("duplicate model name %s", m.Name)
		}
		names[m.Name] = true
		if m.TotalBytes <= 0 || m.TotalObjects <= 0 {
			t.Errorf("%s: non-positive totals", m.Name)
		}
		if m.CallsPerAlloc <= 0 {
			t.Errorf("%s: missing CallsPerAlloc", m.Name)
		}
		if m.HeapRefFrac <= 0 || m.HeapRefFrac >= 1 {
			t.Errorf("%s: HeapRefFrac %v out of (0,1)", m.Name, m.HeapRefFrac)
		}
	}
	if ByName("cfrac") == nil || ByName("nope") != nil {
		t.Error("ByName lookup broken")
	}
}

func TestTotalSitesNearPaper(t *testing.T) {
	// Table 4 "Total Sites" column. The models aim within ~15%.
	targets := map[string]int{
		"cfrac":    134,
		"espresso": 2854,
		"gawk":     171,
		"ghost":    634,
		"perl":     305,
	}
	for _, m := range All() {
		want := targets[m.Name]
		got := m.TotalSites(Train)
		lo, hi := int(float64(want)*0.85), int(float64(want)*1.15)
		if got < lo || got > hi {
			t.Errorf("%s: TotalSites = %d, want within [%d, %d] (paper %d)",
				m.Name, got, lo, hi, want)
		}
	}
}

func BenchmarkGenerateCFRAC(b *testing.B) {
	m := CFRAC()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Generate(Config{Input: Train, Seed: 1, Scale: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSizeDistWeightedChoice(t *testing.T) {
	r := xrand.New(61)
	d := SizeDist{Kind: SizeChoice, Choices: []int64{8, 16, 64}, Weights: []float64{1, 2, 1}}
	counts := map[int64]int{}
	const n = 40000
	for i := 0; i < n; i++ {
		counts[d.sample(r, Train)]++
	}
	if counts[16] < counts[8] || counts[16] < counts[64] {
		t.Fatalf("weighted choice ignored weights: %v", counts)
	}
	// Mean = (8 + 2*16 + 64)/4 = 26.
	if m := d.Mean(Train); math.Abs(m-26) > 1e-9 {
		t.Fatalf("weighted mean = %v, want 26", m)
	}
	if d.DistinctSizes() != 3 {
		t.Fatalf("DistinctSizes = %d", d.DistinctSizes())
	}
}
