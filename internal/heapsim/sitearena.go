package heapsim

import (
	"fmt"

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
// the pool, and resume once it drains. The arena area is bounded by
// MaxSites x ArenasPerSite x ArenaSize.
type SiteArena struct {
	// ArenasPerSite and ArenaSize give each site's pool (default 2 x 4KB).
	// MaxSites is the number of hash buckets sites map onto (default 64,
	// i.e. at most 512KB of arena area with the defaults). Set them
	// before the first allocation.
	ArenasPerSite int
	ArenaSize     int64
	MaxSites      int

	fallback
	pools    map[uint64]*sitePool
	where    map[trace.ObjectID]siteLoc
	nextPool int
	strikes  map[uint64]int
	demoted  map[uint64]bool
	obs      *siteArenaObs // nil unless a collector is attached
}

// siteDemoteAfter is how many pinned-pool fallbacks a site's objects may
// cause before its prediction is revoked for the rest of the run.
const siteDemoteAfter = 4

// siteArenaObs caches resolved metric handles for the hot paths.
type siteArenaObs struct {
	col       *obs.Collector
	scanLen   *obs.Histogram // arenas examined per in-pool hunt (linear)
	allocSize *obs.Histogram // pool-placed sizes (log2)
	resets    *obs.Counter
	fallbacks *obs.Counter
	demotions *obs.Counter
}

type sitePool struct {
	index  int // pool number, for address synthesis
	arenas []siteArenaState
	cur    int
}

// siteArenaState is an arena plus the sites owning its live objects.
type siteArenaState struct {
	used   int64
	count  int64
	owners map[uint64]int64 // full site key -> live objects
}

type siteLoc struct {
	bucket uint64 // pool key (hashed)
	full   uint64 // owning site
	idx    int
	off    int64
	size   int64 // requested bytes, for layout audits
}

// siteArenaBase places the pools' synthetic addresses away from both the
// general heap and the shared Arena window.
const siteArenaBase = int64(1) << 42

// NewSiteArena returns a per-site arena allocator with defaults.
func NewSiteArena() *SiteArena {
	return &SiteArena{
		ArenasPerSite: 2,
		ArenaSize:     4 << 10,
		MaxSites:      64,
		fallback:      newFallback("sitearena"),
		pools:         make(map[uint64]*sitePool),
		where:         make(map[trace.ObjectID]siteLoc),
		strikes:       make(map[uint64]int),
		demoted:       make(map[uint64]bool),
	}
}

// Observe implements Observable; the collector also attaches to the
// general fallback heap.
func (s *SiteArena) Observe(col *obs.Collector) {
	s.general.Observe(col)
	if col == nil {
		s.obs = nil
		return
	}
	s.obs = &siteArenaObs{
		col:       col,
		scanLen:   col.LinearHistogram("sitearena.scan_len", 1, 16),
		allocSize: col.Log2Histogram("sitearena.alloc_size", 16),
		resets:    col.Counter("sitearena.resets"),
		fallbacks: col.Counter("sitearena.fallbacks"),
		demotions: col.Counter("sitearena.demotions"),
	}
}

// AllocAt places an object predicted short-lived at the given site key
// (any stable 64-bit identity for the site; core uses the predictor's
// mapped site). Unpredicted allocations go through Alloc.
func (s *SiteArena) AllocAt(id trace.ObjectID, size int64, site uint64) error {
	_, placed := s.where[id]
	if err := s.admit(id, size, placed); err != nil {
		return err
	}
	s.ops.PredChecks++
	if size > s.ArenaSize {
		return s.alloc(id, size, false)
	}
	if s.demoted[site] {
		return s.alloc(id, size, true)
	}
	fullSite := site
	bucket := site % uint64(s.MaxSites) // hash bucket; pools are bounded
	pool := s.pools[bucket]
	if pool == nil {
		pool = &sitePool{
			index:  s.nextPool,
			arenas: make([]siteArenaState, s.ArenasPerSite),
		}
		s.nextPool++
		s.pools[bucket] = pool
	}
	// Bump in the pool's current arena, hunting within the pool only.
	cur := &pool.arenas[pool.cur]
	if cur.used+size > s.ArenaSize {
		found := false
		for i := 1; i <= len(pool.arenas); i++ {
			idx := (pool.cur + i) % len(pool.arenas)
			s.ops.ArenaScanSteps++
			if pool.arenas[idx].count == 0 {
				pool.cur = idx
				pool.arenas[idx].used = 0
				s.ops.ArenaResets++
				if s.obs != nil {
					s.obs.scanLen.Observe(int64(i))
					s.obs.resets.Inc()
					s.obs.col.Emit(obs.EvArenaReuse, int64(pool.index))
				}
				found = true
				break
			}
		}
		if !found {
			// Strike the sites whose live objects pin this pool; the
			// polluters, not the blocked allocator.
			for ai := range pool.arenas {
				for owner, n := range pool.arenas[ai].owners {
					if n <= 0 || s.demoted[owner] {
						continue
					}
					s.strikes[owner]++
					if s.strikes[owner] >= siteDemoteAfter {
						s.demoted[owner] = true
						s.ops.ArenaDemotions++
						if s.obs != nil {
							s.obs.demotions.Inc()
							s.obs.col.Emit(obs.EvPredictorMiss, int64(owner))
						}
					}
				}
			}
			if s.obs != nil {
				s.obs.scanLen.Observe(int64(len(pool.arenas)))
				s.obs.fallbacks.Inc()
				s.obs.col.Emit(obs.EvArenaOverflow, size)
			}
			return s.alloc(id, size, true)
		}
		cur = &pool.arenas[pool.cur]
	}
	s.where[id] = siteLoc{bucket: bucket, full: fullSite, idx: pool.cur, off: cur.used, size: size}
	if cur.owners == nil {
		cur.owners = make(map[uint64]int64, 4)
	}
	cur.owners[fullSite]++
	cur.used += size
	cur.count++
	s.ops.Allocs++
	s.ops.ArenaAllocs++
	s.ops.ArenaBytes += size
	if s.obs != nil {
		s.obs.allocSize.Observe(size)
	}
	return nil
}

// Alloc implements Allocator: without a site key, predicted allocations
// are keyed on a single shared pseudo-site (degenerating toward the
// shared design). core.RunSimOracle and the conformance harness call
// AllocAt instead whenever their oracle can name the site.
func (s *SiteArena) Alloc(id trace.ObjectID, size int64, predictedShort bool) error {
	if predictedShort {
		return s.AllocAt(id, size, 0)
	}
	_, placed := s.where[id]
	if err := s.admit(id, size, placed); err != nil {
		return err
	}
	return s.alloc(id, size, false)
}

// Free implements Allocator.
func (s *SiteArena) Free(id trace.ObjectID) error {
	if loc, ok := s.where[id]; ok {
		delete(s.where, id)
		st := &s.pools[loc.bucket].arenas[loc.idx]
		if st.count <= 0 {
			return fmt.Errorf("heapsim: site-arena count underflow freeing %d", id)
		}
		st.count--
		if st.owners[loc.full]--; st.owners[loc.full] <= 0 {
			delete(st.owners, loc.full)
		}
		s.ops.Frees++
		s.ops.ArenaFrees++
		return nil
	}
	return s.free(id)
}

// ArenaArea reports the total arena bytes currently reserved.
func (s *SiteArena) ArenaArea() int64 {
	return int64(len(s.pools)) * int64(s.ArenasPerSite) * s.ArenaSize
}

// HeapSize implements Allocator: general heap plus the reserved pools.
func (s *SiteArena) HeapSize() int64 { return s.general.HeapSize() + s.ArenaArea() }

// MaxHeapSize implements Allocator (pools only grow).
func (s *SiteArena) MaxHeapSize() int64 { return s.general.MaxHeapSize() + s.ArenaArea() }

// Addr implements Allocator with synthetic pool addresses.
func (s *SiteArena) Addr(id trace.ObjectID) (int64, bool) {
	if loc, ok := s.where[id]; ok {
		pool := s.pools[loc.bucket]
		poolBase := siteArenaBase + int64(pool.index)*int64(s.ArenasPerSite)*s.ArenaSize
		return poolBase + int64(loc.idx)*s.ArenaSize + loc.off, true
	}
	return s.general.Addr(id)
}

// ArenaOccupancy reports the fraction of the reserved pool area's bytes
// under the bump pointers of arenas holding live objects.
func (s *SiteArena) ArenaOccupancy() float64 {
	area := s.ArenaArea()
	if area == 0 {
		return 0
	}
	var used int64
	for _, pool := range s.pools {
		for _, a := range pool.arenas {
			if a.count > 0 {
				used += a.used
			}
		}
	}
	return float64(used) / float64(area)
}

// PinnedArenas reports how many site pools currently have every arena
// holding a live object: the per-site counterpart of Arena.PinnedArenas,
// which a replay's SimResult.PinnedArenas reports for both.
func (s *SiteArena) PinnedArenas() int {
	n := 0
	for _, pool := range s.pools {
		pinned := true
		for _, a := range pool.arenas {
			if a.count == 0 {
				pinned = false
				break
			}
		}
		if pinned {
			n++
		}
	}
	return n
}
