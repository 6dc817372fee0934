package synth

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/callchain"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// segment is one phase window of a generation run: the byte position
// where it ends and a weighted sampler over the sites active in it.
type segment struct {
	end     int64
	sampler *xrand.Weighted
	active  []*expandedSpec
}

// Source generates a model's events on demand, a block at a time — the
// trace.Source the whole pipeline consumes, and the only generator:
// Generate is Collect over it. Generation state is O(peak live objects):
// the pending-death heap, the freed ids awaiting reuse and the expanded
// site specs, never the event list.
//
// The same Config always yields the same event sequence: the same seeds
// feed the same samplers in the same order, so a Source can replace a
// materialized trace anywhere without perturbing a single byte of
// downstream results.
type Source struct {
	m  *Model
	in Input
	tb *callchain.Table

	segments []segment
	budget   int64
	segIdx   int

	bytes    int64
	nextID   trace.ObjectID   // the lowest id never handed out
	freeIDs  []trace.ObjectID // freed ids, the most recently freed last
	pending  deathHeap
	draining bool
	done     bool

	allocs   int64
	heapRefs int64
	meta     trace.Meta

	count      int
	countKnown bool
}

// Source returns a streaming generator for the model under cfg, with a
// fresh chain table. All site chains are interned during construction,
// so the table is complete before the first event — the Source contract
// consumers rely on. Configuration errors (bad scale, bad phase windows,
// no active sites) surface here, before any event is produced.
func (m *Model) Source(cfg Config) (*Source, error) {
	// NaN fails every comparison, so it is refused with zero and the
	// negatives; an infinite or huge scale puts the byte budget past
	// int64 (or at NaN, for an empty model).
	if bytes := float64(m.TotalBytes) * cfg.Scale; !(cfg.Scale > 0 && bytes < math.MaxInt64) {
		return nil, fmt.Errorf("synth: scale %v out of range (want finite and positive, with a byte budget that fits in int64)", cfg.Scale)
	}
	in := cfg.Input
	if in == "" {
		in = Train
	}
	master := xrand.New(cfg.Seed ^ 0xa5a5a5a5a5a5a5a5)
	tb := callchain.NewTable()
	specs := m.expand(tb, in, master)

	// Phase segmentation: split [0,1) at every site's phase boundary and
	// build one weighted sampler per segment over the sites active in it.
	// Within a segment, a site's object weight is its byte share divided
	// by its phase duration (so its total volume is independent of the
	// window width) and by its mean object size.
	boundsSet := map[float64]bool{0: true, 1: true}
	phase := func(s *expandedSpec) (lo, hi float64) {
		lo, hi = s.PhaseStart, s.PhaseEnd
		if hi <= lo {
			lo, hi = 0, 1
		}
		return lo, hi
	}
	for _, s := range specs {
		lo, hi := phase(s)
		if lo < 0 || hi > 1 {
			return nil, fmt.Errorf("synth: phase window [%v,%v) out of [0,1]", lo, hi)
		}
		boundsSet[lo] = true
		boundsSet[hi] = true
	}
	bounds := make([]float64, 0, len(boundsSet))
	for b := range boundsSet {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)

	budget := int64(float64(m.TotalBytes) * cfg.Scale)
	var segments []segment
	anyActive := false
	for si := 0; si+1 < len(bounds); si++ {
		lo, hi := bounds[si], bounds[si+1]
		var active []*expandedSpec
		var weights []float64
		for _, s := range specs {
			plo, phi := phase(s)
			if plo > lo+1e-12 || phi < hi-1e-12 {
				continue
			}
			f := s.byteFrac(in)
			if f < 0 {
				return nil, fmt.Errorf("synth: negative byte fraction for %v", s.Chain)
			}
			mean := s.Sizes.Mean(in)
			if mean <= 0 {
				return nil, fmt.Errorf("synth: non-positive mean size for %v", s.Chain)
			}
			w := f / (phi - plo) / mean
			if w > 0 {
				active = append(active, s)
				weights = append(weights, w)
			}
		}
		seg := segment{end: int64(hi * float64(budget))}
		if len(active) > 0 {
			seg.sampler = xrand.NewWeighted(master, weights)
			seg.active = active
			anyActive = true
		}
		segments = append(segments, seg)
	}
	if !anyActive {
		return nil, fmt.Errorf("synth: model %s has no active sites for input %s", m.Name, in)
	}
	return &Source{
		m:        m,
		in:       in,
		tb:       tb,
		segments: segments,
		budget:   budget,
		meta:     trace.Meta{Program: m.Name, Input: string(cfg.Input)},
	}, nil
}

// Meta returns the trace metadata. FunctionCalls and NonHeapRefs derive
// from the realized allocation volume, so they are trailer data: zero
// until NextBlock has returned io.EOF.
func (s *Source) Meta() trace.Meta { return s.meta }

// Table returns the chain table, fully interned at construction.
func (s *Source) Table() *callchain.Table { return s.tb }

// EventCount implements trace.Counted once a count has been supplied via
// SetCount (generation length is not known in closed form; Model.
// CountEvents derives it with a deterministic dry run).
func (s *Source) EventCount() (int, bool) {
	if !s.countKnown {
		return 0, false
	}
	return s.count, true
}

// SetCount declares the exact number of events this source will yield,
// enabling consumers that need trace-relative positions (the obs phase
// marks). The caller vouches for n — normally via Model.CountEvents with
// the same Config, which is exact by determinism.
func (s *Source) SetCount(n int) { s.count, s.countKnown = n, true }

// next takes one generation step: the next event, or io.EOF at the end
// of the run.
func (s *Source) next() (trace.Event, error) {
	if s.done {
		return trace.Event{}, io.EOF
	}
	if !s.draining {
		if s.bytes >= s.budget {
			s.draining = true
		}
	}
	if !s.draining {
		for s.segIdx+1 < len(s.segments) &&
			(s.bytes >= s.segments[s.segIdx].end || s.segments[s.segIdx].sampler == nil) {
			s.segIdx++
		}
		seg := &s.segments[s.segIdx]
		if seg.sampler == nil {
			// No sites are active in the final segment; stop early.
			s.draining = true
		} else {
			// Emit any deaths that have come due before the next birth.
			if len(s.pending) > 0 && s.pending[0].deathTime <= s.bytes {
				return s.free(), nil
			}
			sp := seg.active[seg.sampler.Next()]
			size := sp.Sizes.sample(sp.rng, s.in)
			refs := int64(sp.RefsPerObject + sp.RefsPerByte*float64(size))
			obj := s.nextID
			if n := len(s.freeIDs); n > 0 {
				obj = s.freeIDs[n-1]
				s.freeIDs = s.freeIDs[:n-1]
			} else {
				s.nextID++
			}
			s.bytes += size
			life := sp.life(s.in).sample(sp.rng)
			if life != immortal {
				// Lifetime counts bytes allocated after (and including)
				// this object; the minimum observable lifetime is the
				// object's own size.
				if life < size {
					life = size
				}
				s.pending.push(deathEvent{deathTime: s.bytes - size + life, obj: obj})
			}
			s.allocs++
			s.heapRefs += refs
			return trace.Event{
				Kind:  trace.KindAlloc,
				Obj:   obj,
				Size:  size,
				Chain: sp.chainID,
				Refs:  refs,
			}, nil
		}
	}
	// Drain deaths that fall within the generated period. Anything later
	// stays unfreed, i.e. alive at program exit.
	if len(s.pending) > 0 && s.pending[0].deathTime <= s.bytes {
		return s.free(), nil
	}
	s.done = true
	s.meta.FunctionCalls = int64(s.m.CallsPerAlloc * float64(s.allocs))
	if s.m.HeapRefFrac > 0 && s.m.HeapRefFrac < 1 {
		s.meta.NonHeapRefs = int64(float64(s.heapRefs) * (1 - s.m.HeapRefFrac) / s.m.HeapRefFrac)
	}
	return trace.Event{}, io.EOF
}

// free frees the object whose death is due first and keeps its id for
// the next allocation. Recycling draws no random numbers, so sizes,
// chains and the byte clock are those of a run that never reused an id,
// and every id stays below the peak live count.
func (s *Source) free() trace.Event {
	obj := s.pending.pop().obj
	s.freeIDs = append(s.freeIDs, obj)
	return trace.Event{Kind: trace.KindFree, Obj: obj}
}

// NextBlock implements trace.Source: the generator fills the caller's
// block directly, one generation step per slot. The steps run in the
// same order whatever the block size, so the event sequence is
// byte-identical for any consumer. io.EOF after a partially filled block
// is held back for the following call, per the Source contract.
func (s *Source) NextBlock(b *trace.EventBlock) error {
	b.Reset()
	if s.done {
		return io.EOF
	}
	for !b.Full() {
		ev, err := s.next()
		if err != nil {
			if b.N == 0 {
				return err
			}
			// s.done is already set, so the next NextBlock call
			// returns the io.EOF held back here.
			return nil
		}
		b.Append(ev)
	}
	return nil
}

// CountEvents returns the exact number of events the model generates
// under cfg, by a counting dry run into a scratch table. Generation is
// deterministic in Config, so the count is exact for any Source built
// with the same cfg; the dry run costs one generation pass and holds
// only O(live objects) memory.
func (m *Model) CountEvents(cfg Config) (int, error) {
	src, err := m.Source(cfg)
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		if _, err := src.next(); err == io.EOF {
			return n, nil
		} else if err != nil {
			return 0, err
		}
		n++
	}
}
