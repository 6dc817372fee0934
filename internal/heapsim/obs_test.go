package heapsim

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestObservedFirstFit checks that an observed first-fit run records
// search lengths, splits, coalesces, extends, and heap-grow/coalesce
// events — and that observation never changes allocator behaviour.
func TestObservedFirstFit(t *testing.T) {
	plain := NewFirstFit()
	observed := NewFirstFit()
	col := obs.NewCollector(obs.Options{})
	observed.Observe(col)

	for _, a := range []Allocator{plain, observed} {
		mustAlloc(t, a, 1, 100, false)
		mustAlloc(t, a, 2, 200, false)
		mustAlloc(t, a, 3, 300, false)
		mustFree(t, a, 2)
		mustAlloc(t, a, 4, 50, false) // splits the freed block
		mustFree(t, a, 1)
		mustFree(t, a, 3)
		mustFree(t, a, 4) // coalesces
	}
	if plain.HeapSize() != observed.HeapSize() {
		t.Errorf("observed heap %d != plain heap %d", observed.HeapSize(), plain.HeapSize())
	}
	if plain.Counts() != observed.Counts() {
		t.Errorf("observed ops %+v != plain ops %+v", observed.Counts(), plain.Counts())
	}

	s := col.Snapshot()
	if s.Counters["firstfit.splits"] == 0 {
		t.Error("no splits counted")
	}
	if s.Counters["firstfit.coalesces"] == 0 {
		t.Error("no coalesces counted")
	}
	if s.Counters["firstfit.extends"] == 0 {
		t.Error("no extends counted")
	}
	if h := s.Histograms["firstfit.search_len"]; h.Count != 4 {
		t.Errorf("search_len count = %d, want 4 (one per alloc)", h.Count)
	}
	if h := s.Histograms["firstfit.alloc_size"]; h.Count != 4 || h.Max != 300 {
		t.Errorf("alloc_size count=%d max=%d, want 4/300", h.Count, h.Max)
	}
	if s.Events.Counts["heap_grow"] == 0 {
		t.Error("no heap_grow events")
	}
	if s.Events.Counts["coalesce"] == 0 {
		t.Error("no coalesce events")
	}
}

// TestObservedBestFit checks best-fit metrics land under the "bestfit."
// prefix, not "firstfit.".
func TestObservedBestFit(t *testing.T) {
	b := NewBestFit()
	col := obs.NewCollector(obs.Options{})
	b.Observe(col)
	mustAlloc(t, b, 1, 100, false)
	mustAlloc(t, b, 2, 200, false)
	mustFree(t, b, 1)
	mustFree(t, b, 2)

	s := col.Snapshot()
	if h := s.Histograms["bestfit.alloc_size"]; h.Count != 2 {
		t.Errorf("bestfit.alloc_size count = %d, want 2", h.Count)
	}
	if h := s.Histograms["bestfit.search_len"]; h.Count != 2 {
		t.Errorf("bestfit.search_len count = %d, want 2", h.Count)
	}
	for name := range s.Histograms {
		if strings.HasPrefix(name, "firstfit.") {
			t.Errorf("best-fit recorded under %q", name)
		}
	}
}

// TestObservedBSD checks the BSD simulator's bucket histogram and slab
// carve events.
func TestObservedBSD(t *testing.T) {
	b := NewBSD()
	col := obs.NewCollector(obs.Options{})
	b.Observe(col)
	mustAlloc(t, b, 1, 100, false)
	mustAlloc(t, b, 2, 2000, false)
	mustFree(t, b, 1)

	s := col.Snapshot()
	if h := s.Histograms["bsd.bucket"]; h.Count != 2 {
		t.Errorf("bsd.bucket count = %d, want 2", h.Count)
	}
	if s.Counters["bsd.carves"] == 0 {
		t.Error("no carves counted")
	}
	if s.Events.Counts["heap_grow"] == 0 {
		t.Error("no heap_grow events on slab carve")
	}
}

// TestObservedArena checks arena reuse/overflow events, the pinned gauge,
// and the occupancy probe.
func TestObservedArena(t *testing.T) {
	a := NewArena()
	col := obs.NewCollector(obs.Options{})
	a.Observe(col)

	// Fill one arena with predicted-short objects, free them, then force
	// arena reuse by allocating past the arena boundary.
	id := trace.ObjectID(1)
	var ids []trace.ObjectID
	for used := int64(0); used+512 <= a.size; used += 512 {
		mustAlloc(t, a, id, 512, true)
		ids = append(ids, id)
		id++
	}
	if got := a.ArenaOccupancy(); got <= 0 {
		t.Errorf("occupancy = %g, want > 0 with a pinned arena", got)
	}
	for _, i := range ids {
		mustFree(t, a, i)
	}
	for j := 0; j < len(a.arenas)*8; j++ {
		mustAlloc(t, a, id, a.size/2, true)
		mustFree(t, a, id)
		id++
	}

	s := col.Snapshot()
	if s.Events.Counts["arena_reuse"] == 0 {
		t.Error("no arena_reuse events")
	}
	if s.Counters["arena.resets"] == 0 {
		t.Error("no resets counted")
	}
	if g := s.Gauges["arena.pinned"]; g.Max == 0 {
		t.Error("pinned gauge never rose")
	}
	if h := s.Histograms["arena.alloc_size"]; h.Count == 0 {
		t.Error("no arena alloc sizes recorded")
	}

	// Pin every arena to force the overflow/fallback path.
	b := NewArena()
	col2 := obs.NewCollector(obs.Options{})
	b.Observe(col2)
	id = 1
	for i := 0; i <= len(b.arenas); i++ {
		mustAlloc(t, b, id, b.size-16, true)
		id++
	}
	s2 := col2.Snapshot()
	if s2.Events.Counts["arena_overflow"] == 0 {
		t.Error("no arena_overflow event when every arena is pinned")
	}
	if s2.Counters["arena.fallbacks"] == 0 {
		t.Error("no fallbacks counted")
	}
}

// TestObservedSiteArenaDemotion pins one site's pool with never-freed
// objects until online demotion revokes its prediction, and checks the
// predictor_miss event fires.
func TestObservedSiteArenaDemotion(t *testing.T) {
	sa := NewSiteArena()
	col := obs.NewCollector(obs.Options{})
	sa.Observe(col)

	const site = 7
	id := trace.ObjectID(1)
	// Fill the site's pool (per arenas) with live objects.
	poolBytes := int64(sa.per) * sa.size
	for used := int64(0); used < poolBytes+sa.size; used += 512 {
		if err := sa.AllocAt(id, 512, site); err != nil {
			t.Fatalf("AllocAt: %v", err)
		}
		id++
	}
	// The pool is pinned; repeated allocations strike the owner until it
	// is demoted.
	for i := 0; i < siteDemoteAfter+2; i++ {
		if err := sa.AllocAt(id, 512, site); err != nil {
			t.Fatalf("AllocAt (pinned): %v", err)
		}
		id++
	}

	s := col.Snapshot()
	if s.Counters["sitearena.demotions"] == 0 {
		t.Error("polluting site was never demoted")
	}
	if s.Events.Counts["predictor_miss"] == 0 {
		t.Error("no predictor_miss event on demotion")
	}
	if s.Events.Counts["arena_overflow"] == 0 {
		t.Error("no arena_overflow events while the pool was pinned")
	}
	if h := s.Histograms["sitearena.alloc_size"]; h.Count == 0 {
		t.Error("no sitearena alloc sizes recorded")
	}
	if occ := sa.ArenaOccupancy(); occ <= 0 || occ > 1 {
		t.Errorf("occupancy = %g, want in (0,1]", occ)
	}
}

// TestSiteArenaDemotionOrder pins several sites' immortal objects in one
// pool and drives the pool to demotion on fresh simulators: every replay
// must emit the same events, with the predictor_miss events in the order
// in which the sites placed their objects.
func TestSiteArenaDemotionOrder(t *testing.T) {
	const sites = 8
	replay := func() []obs.Event {
		sa := NewSiteArenaGeometry(1, 1000, 1) // one pool of one arena
		col := obs.NewCollector(obs.Options{})
		sa.Observe(col)
		id := trace.ObjectID(1)
		for site := uint64(1); site <= sites; site++ {
			if err := sa.AllocAt(id, 100, site); err != nil {
				t.Fatal(err)
			}
			id++
		}
		// Each 300-byte request finds the arena pinned and strikes all
		// eight owners; the last strike demotes them together.
		for i := 0; i < siteDemoteAfter; i++ {
			if err := sa.AllocAt(id, 300, 99); err != nil {
				t.Fatal(err)
			}
			id++
		}
		if got := sa.Counts().ArenaDemotions; got != sites {
			t.Fatalf("%d sites demoted, want %d", got, sites)
		}
		return col.Snapshot().Events.Recent
	}
	first := replay()
	var misses []int64
	for _, ev := range first {
		if ev.Kind == obs.EvPredictorMiss {
			misses = append(misses, ev.Arg)
		}
	}
	if want := []int64{1, 2, 3, 4, 5, 6, 7, 8}; !slices.Equal(misses, want) {
		t.Fatalf("predictor_miss sites %v, want placement order %v", misses, want)
	}
	for i := 0; i < 4; i++ {
		if again := replay(); !slices.Equal(again, first) {
			t.Fatalf("replay %d events differ:\n%v\nvs\n%v", i+2, again, first)
		}
	}
}

// TestErrorsNameAllocator checks the satellite: double-alloc and
// unknown-free errors identify which allocator raised them.
func TestErrorsNameAllocator(t *testing.T) {
	cases := []struct {
		name  string
		alloc Allocator
	}{
		{"firstfit", NewFirstFit()},
		{"bestfit", NewBestFit()},
		{"bsd", NewBSD()},
		{"arena", NewArena()},
		{"sitearena", NewSiteArena()},
		{"custom", NewCustom([]int64{64})},
	}
	for _, c := range cases {
		mustAlloc(t, c.alloc, 1, 64, false)
		err := c.alloc.Alloc(1, 64, false)
		if err == nil {
			t.Errorf("%s: double alloc accepted", c.name)
		} else if !strings.Contains(err.Error(), c.name) {
			t.Errorf("%s: double-alloc error %q does not name the allocator", c.name, err)
		}
		err = c.alloc.Free(999)
		if err == nil {
			t.Errorf("%s: unknown free accepted", c.name)
		} else if !strings.Contains(err.Error(), c.name) {
			t.Errorf("%s: unknown-free error %q does not name the allocator", c.name, err)
		}
	}
}

// TestObserveDetach checks a nil collector detaches instrumentation.
func TestObserveDetach(t *testing.T) {
	ff := NewFirstFit()
	col := obs.NewCollector(obs.Options{})
	ff.Observe(col)
	mustAlloc(t, ff, 1, 64, false)
	ff.Observe(nil)
	mustAlloc(t, ff, 2, 64, false)
	s := col.Snapshot()
	if h := s.Histograms["firstfit.alloc_size"]; h.Count != 1 {
		t.Errorf("after detach, alloc_size count = %d, want 1", h.Count)
	}
}
