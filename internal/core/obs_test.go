package core

import (
	"reflect"
	"testing"

	"repro/internal/heapsim"
	"repro/internal/obs"
	"repro/internal/synth"
)

// TestNilCollectorIdentical is the acceptance gate for the observability
// layer: attaching a collector must not change a single SimResult value.
// Every model runs twice per allocator — bare and observed — and the
// results must match field-for-field once the snapshot is stripped.
func TestNilCollectorIdentical(t *testing.T) {
	for _, name := range ProgramOrder {
		a := buildArtifacts(t, name)
		allocs := map[string]func() heapsim.Allocator{
			"firstfit": func() heapsim.Allocator { return heapsim.NewFirstFit() },
			"bestfit":  func() heapsim.Allocator { return heapsim.NewBestFit() },
			"bsd":      func() heapsim.Allocator { return heapsim.NewBSD() },
			"arena":    func() heapsim.Allocator { return heapsim.NewArena() },
		}
		for aname, mk := range allocs {
			bare, err := RunSim(a.TestTrace, mk(), a.TrainPredictor)
			if err != nil {
				t.Fatalf("%s/%s bare: %v", name, aname, err)
			}
			col := obs.NewCollector(obs.Options{Label: name + "/" + aname})
			observed, err := RunSim(a.TestTrace, mk(), a.TrainPredictor, col)
			if err != nil {
				t.Fatalf("%s/%s observed: %v", name, aname, err)
			}
			if observed.Obs == nil {
				t.Fatalf("%s/%s: observed run has no snapshot", name, aname)
			}
			observed.Obs = nil
			if !reflect.DeepEqual(bare, observed) {
				t.Errorf("%s/%s: observed SimResult differs:\n bare %+v\n obsd %+v",
					name, aname, bare, observed)
			}
		}
		// Per-site routed replay too.
		bare, err := RunSim(a.TestTrace, heapsim.NewSiteArena(), a.TrainPredictor)
		if err != nil {
			t.Fatalf("%s/sitearena bare: %v", name, err)
		}
		col := obs.NewCollector(obs.Options{})
		observed, err := RunSim(a.TestTrace, heapsim.NewSiteArena(), a.TrainPredictor, col)
		if err != nil {
			t.Fatalf("%s/sitearena observed: %v", name, err)
		}
		if observed.Obs == nil {
			t.Fatalf("%s/sitearena: observed run has no snapshot", name)
		}
		observed.Obs = nil
		if !reflect.DeepEqual(bare, observed) {
			t.Errorf("%s/sitearena: observed SimResult differs", name)
		}
	}
}

// TestObservedRunSim checks the snapshot core attaches: identity fields,
// the timeline, quartile phases, and the site ranking.
func TestObservedRunSim(t *testing.T) {
	a := buildArtifacts(t, "gawk")
	col := obs.NewCollector(obs.Options{TimelineInterval: 16 << 10})
	res, err := RunSim(a.TestTrace, heapsim.NewArena(), a.TrainPredictor, col)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Obs
	if s == nil {
		t.Fatal("no snapshot")
	}
	if s.Program != "gawk" || s.Allocator != "arena" {
		t.Errorf("identity = %q/%q, want gawk/arena", s.Program, s.Allocator)
	}
	if s.Clock != res.TotalBytes {
		t.Errorf("clock = %d, want total bytes %d", s.Clock, res.TotalBytes)
	}
	if len(s.Timeline) == 0 {
		t.Fatal("no timeline samples")
	}
	last := s.Timeline[len(s.Timeline)-1]
	if last.Clock != res.TotalBytes {
		t.Errorf("final sample clock = %d, want %d", last.Clock, res.TotalBytes)
	}
	for i, p := range s.Timeline {
		if p.HeapBytes <= 0 {
			t.Errorf("sample %d: heap = %d", i, p.HeapBytes)
		}
		if p.LiveBytes < 0 || p.LiveBytes > p.HeapBytes {
			t.Errorf("sample %d: live %d outside [0,heap=%d]", i, p.LiveBytes, p.HeapBytes)
		}
		if p.ArenaOccupancy < 0 || p.ArenaOccupancy > 1 {
			t.Errorf("sample %d: occupancy %g outside [0,1]", i, p.ArenaOccupancy)
		}
	}
	// Quartile phases: 25%, 50%, 75%, end — in clock order.
	if len(s.Phases) != 4 {
		t.Fatalf("phases = %d (%v), want 4", len(s.Phases), s.Phases)
	}
	wantLabels := []string{"25%", "50%", "75%", "end"}
	for i, ph := range s.Phases {
		if ph.Label != wantLabels[i] {
			t.Errorf("phase %d label = %q, want %q", i, ph.Label, wantLabels[i])
		}
		if i > 0 && ph.Clock < s.Phases[i-1].Clock {
			t.Errorf("phase clocks out of order: %d then %d", s.Phases[i-1].Clock, ph.Clock)
		}
	}
	// Sites are ranked by bytes, descending, at most maxObsSites.
	if len(s.Sites) == 0 {
		t.Fatal("no site ranking")
	}
	if len(s.Sites) > maxObsSites {
		t.Errorf("sites = %d, want <= %d", len(s.Sites), maxObsSites)
	}
	for i := 1; i < len(s.Sites); i++ {
		if s.Sites[i].Bytes > s.Sites[i-1].Bytes {
			t.Errorf("sites not sorted by bytes at %d", i)
		}
	}
	if s.Sites[0].Site == "" {
		t.Error("top site has no rendered chain")
	}
}

// TestRunSimSourceIdentity is the tentpole acceptance gate: for every
// model, replaying a streaming synth.Source through RunSimSource must
// produce a SimResult — observability snapshot included — identical to
// the slice-based replay of the materialized trace.
func TestRunSimSourceIdentity(t *testing.T) {
	for _, name := range ProgramOrder {
		m := synth.ByName(name)
		gcfg := synth.Config{Input: synth.Test, Seed: 7, Scale: 0.01}
		tr, err := m.Generate(gcfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, aname := range AllocatorNames {
			want, err := RunSim(tr, MustNewAllocator(aname), nil,
				obs.NewCollector(obs.Options{Label: name}))
			if err != nil {
				t.Fatalf("%s/%s slice: %v", name, aname, err)
			}
			src, err := m.Source(gcfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, aname, err)
			}
			src.SetCount(len(tr.Events))
			got, err := RunSimSource(src, MustNewAllocator(aname), nil,
				obs.NewCollector(obs.Options{Label: name}))
			if err != nil {
				t.Fatalf("%s/%s stream: %v", name, aname, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: streaming SimResult diverges from slice replay", name, aname)
			}
		}
	}
}

// TestObservedRunSimStream checks the streaming replay produces the
// complete snapshot — the counting dry run supplies the event count, so
// the quartile phase marks land exactly where the materialized path puts
// them — and that the whole observed SimResult, snapshot included, is
// identical to replaying the materialized trace.
func TestObservedRunSimStream(t *testing.T) {
	m := synth.ByName("cfrac")
	gcfg := synth.Config{Input: synth.Test, Seed: 7, Scale: 0.01}
	col := obs.NewCollector(obs.Options{})
	res, err := RunSimSource(countedSource(t, m, gcfg), heapsim.NewFirstFit(), nil, col)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Obs
	if s == nil {
		t.Fatal("no snapshot")
	}
	if s.Program != "cfrac" {
		t.Errorf("program = %q", s.Program)
	}
	wantLabels := []string{"25%", "50%", "75%", "end"}
	if len(s.Phases) != len(wantLabels) {
		t.Fatalf("stream phases = %+v, want %v", s.Phases, wantLabels)
	}
	for i, ph := range s.Phases {
		if ph.Label != wantLabels[i] {
			t.Errorf("phase %d label = %q, want %q", i, ph.Label, wantLabels[i])
		}
	}
	if len(s.Timeline) == 0 {
		t.Error("no timeline samples")
	}

	// Streaming and materialized observed replays of the same generator
	// must agree on everything, the snapshot included.
	tr, err := m.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := RunSim(tr, heapsim.NewFirstFit(), nil, obs.NewCollector(obs.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, mat) {
		t.Errorf("observed stream diverges from materialized:\n stream %+v\n mater  %+v", res, mat)
	}
}
