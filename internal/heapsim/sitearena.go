package heapsim

import (
	"slices"

	"repro/internal/obs"
	"repro/internal/trace"
)

// SiteArena explores the algorithm space the paper's conclusion leaves
// open ("Further exploration of algorithms based on this idea are
// required"): instead of one shared pool of arenas, predicted short-lived
// *sites* are hashed across many small pools (Hanson's original design
// gave each programmer-declared lifetime its own arena; hashing bounds
// the memory when a program has thousands of predictor sites, as
// ESPRESSO does).
//
// The payoff is pollution isolation — the paper's CFRAC failure mode. In
// the shared design, one site's mispredicted long-lived objects pin all
// sixteen arenas and the whole allocator degenerates. Two mechanisms
// contain it here:
//
//  1. site-hashed pools: a polluting site only poisons the pool its hash
//     lands in, so unrelated pools keep bump-allocating;
//  2. online demotion: a site whose allocations repeatedly find their
//     pool pinned (siteDemoteAfter strikes) has its prediction revoked for
//     the rest of the run and goes to the general heap — the runtime
//     answer to the paper's observation that "high error rates degrade
//     performance dramatically and it will be important to identify
//     programs that exhibit them". Once the polluter is demoted, its
//     pool drains and the innocent sites sharing the bucket resume.
//
// Demotion blames the sites that OWN live objects in the pinned pool
// (the actual polluters), so innocents sharing a bucket are never
// revoked: they fall back only while the polluter's objects still pin
// the pool, and resume once it drains. The pools are those of an
// arenaArea, which does the bump, hunt, spill and free; the arena area
// is bounded by maxSites x perSite x size.
type SiteArena struct {
	arenaArea
	maxSites  int
	pools     []int32        // hash bucket -> its pool's number plus one (0: none yet)
	owners    [][]siteOwner  // per arena: the sites owning its live objects, in placement order
	strikes   map[uint64]int // per site: pinned-pool fallbacks blamed on it
	demotions *obs.Counter   // nil unless a collector is attached
}

// siteOwner counts one site's live objects in an arena.
type siteOwner struct {
	site uint64
	live int64
}

// siteDemoteAfter is how many pinned-pool fallbacks a site's objects may
// cause before its prediction is revoked for the rest of the run: a site
// is demoted exactly when its strikes reach it.
const siteDemoteAfter = 4

// siteArenaBase places the pools' synthetic addresses away from both the
// general heap and the shared Arena window.
const siteArenaBase = int64(1) << 42

// NewSiteArena returns a per-site arena allocator with the default
// geometry: 64 hash buckets, each a pool of 2 x 4KB arenas, so at most
// 512KB of arena area.
func NewSiteArena() *SiteArena { return NewSiteArenaGeometry(2, 4<<10, 64) }

// NewSiteArenaGeometry returns a per-site arena allocator whose sites
// hash onto maxSites buckets, each a pool of perSite arenas of size bytes
// (all three must be positive), over a fresh first-fit general heap.
func NewSiteArenaGeometry(perSite int, size int64, maxSites int) *SiteArena {
	return &SiteArena{
		arenaArea: newArenaArea("sitearena", siteArenaBase, size, perSite),
		maxSites:  maxSites,
		pools:     make([]int32, maxSites),
		strikes:   make(map[uint64]int),
	}
}

// Observe implements Observable; the collector also attaches to the
// general fallback heap.
func (s *SiteArena) Observe(col *obs.Collector) {
	s.observe(col, 16)
	s.demotions = nil
	if col != nil {
		s.demotions = col.Counter("sitearena.demotions")
	}
}

// AllocAt places an object predicted short-lived at the given site key
// (any stable 64-bit identity for the site; core uses the predictor's
// mapped site). Unpredicted allocations go through Alloc.
func (s *SiteArena) AllocAt(id trace.ObjectID, size int64, site uint64) error {
	_, placed := s.live.Get(id)
	if err := s.admit(id, size, placed); err != nil {
		return err
	}
	s.ops.PredChecks++
	if size > s.size {
		return s.alloc(id, size, false)
	}
	if s.strikes[site] >= siteDemoteAfter {
		return s.alloc(id, size, true)
	}
	p := s.pool(site % uint64(s.maxSites))
	g := s.bump(p, id, size, site)
	if g < 0 {
		s.strike(p)
		return s.spill(id, size)
	}
	s.own(g, site)
	return nil
}

// pool returns a hash bucket's pool, adding it on first use, so pools
// are numbered, and their arenas addressed, in first-use order.
func (s *SiteArena) pool(bucket uint64) int {
	if p := s.pools[bucket]; p > 0 {
		return int(p) - 1
	}
	p := s.addPool()
	s.pools[bucket] = int32(p + 1)
	s.owners = append(s.owners, make([][]siteOwner, s.per)...)
	return p
}

// own counts a new live object of site in arena g.
func (s *SiteArena) own(g int, site uint64) {
	os := s.owners[g]
	for i := range os {
		if os[i].site == site {
			os[i].live++
			return
		}
	}
	s.owners[g] = append(os, siteOwner{site: site, live: 1})
}

// disown uncounts a dead object of site in arena g, dropping the site
// from the arena's owners with its last live object there.
func (s *SiteArena) disown(g int, site uint64) {
	os := s.owners[g]
	for i := range os {
		if os[i].site == site {
			if os[i].live--; os[i].live == 0 {
				s.owners[g] = append(os[:i], os[i+1:]...)
			}
			return
		}
	}
}

// strike blames the sites whose live objects pin pool p — the polluters,
// not the blocked allocation — arena by arena in placement order. Each
// site not yet demoted takes one strike per arena it owns objects in, and
// is demoted when its strikes reach siteDemoteAfter.
func (s *SiteArena) strike(p int) {
	for _, os := range s.owners[p*s.per : (p+1)*s.per] {
		for _, o := range os {
			n := s.strikes[o.site]
			if n >= siteDemoteAfter {
				continue
			}
			s.strikes[o.site] = n + 1
			if n+1 < siteDemoteAfter {
				continue
			}
			s.ops.ArenaDemotions++
			if s.demotions != nil {
				s.demotions.Inc()
				s.obs.col.Emit(obs.EvPredictorMiss, int64(o.site))
			}
		}
	}
}

// Alloc implements Allocator: without a site key, predicted allocations
// are keyed on a single shared pseudo-site (degenerating toward the
// shared design). core.RunSimOracle and the conformance harness call
// AllocAt instead whenever their oracle can name the site.
func (s *SiteArena) Alloc(id trace.ObjectID, size int64, predictedShort bool) error {
	if predictedShort {
		return s.AllocAt(id, size, 0)
	}
	_, placed := s.live.Get(id)
	if err := s.admit(id, size, placed); err != nil {
		return err
	}
	return s.alloc(id, size, false)
}

// Free implements Allocator.
func (s *SiteArena) Free(id trace.ObjectID) error {
	loc, ok := s.live.Delete(id)
	if !ok {
		return s.free(id)
	}
	s.release(loc)
	s.disown(loc.arena, loc.site)
	return nil
}

// PinnedArenas reports how many site pools currently have every arena
// holding a live object: the per-site counterpart of Arena.PinnedArenas,
// which a replay's SimResult.PinnedArenas reports for both.
func (s *SiteArena) PinnedArenas() int {
	n := 0
	for p := range s.cur {
		free := func(st arenaState) bool { return st.count == 0 }
		if !slices.ContainsFunc(s.arenas[p*s.per:(p+1)*s.per], free) {
			n++
		}
	}
	return n
}
