// Package check is the allocator conformance harness: correctness
// tooling that cross-checks the heapsim simulators against the trace's
// own ground truth and against each other, so that accounting bugs —
// the kind that silently flip allocator-simulation conclusions — are
// caught by construction rather than by eyeballing Table 8.
//
// It has three layers:
//
//   - an invariant auditor (AuditState) that walks an allocator's
//     block/arena layout through the heapsim.Walker interface and proves
//     no-overlap, free-list well-formedness, live-byte conservation
//     against the replayed trace's ledger, and the HeapSize accounting
//     identity, after every event or on a sampling stride;
//   - a differential replay oracle (Diff) that replays one trace through
//     several allocators in lockstep and asserts policy-independent
//     agreement, plus metamorphic properties (metamorphic.go);
//   - a property-based generator (GenTrace) with a delta-debugging
//     shrinker (Shrink) that minimizes any violating trace to a small
//     replayable repro.
//
// cmd/lpcheck drives all three from the command line and CI.
package check

import (
	"fmt"
	"sort"

	"repro/internal/heapsim"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Options configures a conformance replay.
type Options struct {
	// Stride audits the allocator state every Stride events; 1 audits
	// after every event, 0 or negative audits only at end of trace.
	Stride int
	// Predict supplies the predictedShort hint to every replay, the
	// block/scalar equivalence included, and the lifetime threshold its
	// pred.* accuracy families are scored against; nil predicts nothing.
	// It must speak the replayed trace's chain table. A *profile.Mapper
	// also routes a SiteArena per site, as the production replay does.
	Predict profile.Oracle
}

// defaultDeadSample is how many recently-freed object ids a conformance
// replay's ledger retains for negative liveness probes.
const defaultDeadSample = 32

// Ledger is the trace's own account of what must be live: the ground
// truth every allocator is audited against. It also validates the event
// stream itself (no double alloc, no unknown free), so a malformed trace
// is reported as a trace error, never as an allocator violation.
type Ledger struct {
	live      map[trace.ObjectID]int64
	liveBytes int64
	allocs    int64
	frees     int64

	maxID    trace.ObjectID
	anyAlloc bool
	dead     []trace.ObjectID // ring of recently freed ids
	deadNext int
}

// NewLedger returns an empty ledger retaining deadSample freed ids.
func NewLedger(deadSample int) *Ledger {
	if deadSample <= 0 {
		deadSample = defaultDeadSample
	}
	return &Ledger{
		live: make(map[trace.ObjectID]int64),
		dead: make([]trace.ObjectID, 0, deadSample),
	}
}

// Apply folds one event into the ledger, validating trace legality.
func (l *Ledger) Apply(ev trace.Event) error {
	switch ev.Kind {
	case trace.KindAlloc:
		if ev.Size <= 0 {
			return fmt.Errorf("trace: non-positive allocation size %d", ev.Size)
		}
		if _, dup := l.live[ev.Obj]; dup {
			return fmt.Errorf("trace: object %d allocated while already live", ev.Obj)
		}
		l.live[ev.Obj] = ev.Size
		l.liveBytes += ev.Size
		l.allocs++
		if !l.anyAlloc || ev.Obj > l.maxID {
			l.maxID = ev.Obj
			l.anyAlloc = true
		}
	case trace.KindFree:
		sz, ok := l.live[ev.Obj]
		if !ok {
			return fmt.Errorf("trace: free of unknown or dead object %d", ev.Obj)
		}
		delete(l.live, ev.Obj)
		l.liveBytes -= sz
		l.frees++
		if cap(l.dead) > 0 {
			if len(l.dead) < cap(l.dead) {
				l.dead = append(l.dead, ev.Obj)
			} else {
				l.dead[l.deadNext] = ev.Obj
				l.deadNext = (l.deadNext + 1) % cap(l.dead)
			}
		}
	default:
		return fmt.Errorf("trace: bad event kind %d", ev.Kind)
	}
	return nil
}

// LiveObjects returns how many objects the trace says are live.
func (l *Ledger) LiveObjects() int { return len(l.live) }

// LiveBytes returns the trace's live payload byte total.
func (l *Ledger) LiveBytes() int64 { return l.liveBytes }

// deadIDs returns ids that must not be live: recently freed ones plus
// one id never allocated.
func (l *Ledger) deadIDs() []trace.ObjectID {
	never := l.maxID + 1
	if !l.anyAlloc {
		never = 0
	}
	out := make([]trace.ObjectID, 0, len(l.dead)+1)
	for _, id := range l.dead {
		if _, stillLive := l.live[id]; !stillLive { // id may have been re-allocated
			out = append(out, id)
		}
	}
	return append(out, never)
}

// invariantChecker is the self-check hook the boundary-tag heaps expose.
type invariantChecker interface {
	CheckInvariants() error
}

// AuditState runs one full audit of an allocator's current state against
// the ledger. The name labels violations. Checks, in order:
//
//   - the allocator's own structural self-check (CheckInvariants), when
//     it has one;
//   - operation conservation: Counts().Allocs/Frees equal the ledger's;
//   - when the allocator implements heapsim.Walker, the layout checks:
//     region windows disjoint and summing to HeapSize(), every span
//     inside its region, spans pairwise disjoint, tiled regions gapless,
//     coalesced regions with no adjacent free pairs, and the walked live
//     set identical to the ledger's (same ids, same payload bytes);
//   - liveness agreement: Addr reports every ledger-live id inside its
//     walked span, and reports recently-freed and never-allocated ids
//     dead.
func AuditState(name string, alloc heapsim.Allocator, led *Ledger) error {
	if ic, ok := alloc.(invariantChecker); ok {
		if err := ic.CheckInvariants(); err != nil {
			return fmt.Errorf("%s: self-check: %w", name, err)
		}
	}
	c := alloc.Counts()
	if c.Allocs != led.allocs {
		return fmt.Errorf("%s: Counts().Allocs = %d, trace performed %d", name, c.Allocs, led.allocs)
	}
	if c.Frees != led.frees {
		return fmt.Errorf("%s: Counts().Frees = %d, trace performed %d", name, c.Frees, led.frees)
	}

	w, ok := alloc.(heapsim.Walker)
	if ok {
		if err := auditLayout(name, alloc, w, led); err != nil {
			return err
		}
	} else {
		// Without layout access, at least hold the liveness surface.
		for id := range led.live {
			if _, live := alloc.Addr(id); !live {
				return fmt.Errorf("%s: live object %d reported dead by Addr", name, id)
			}
		}
	}
	for _, id := range led.deadIDs() {
		if a, live := alloc.Addr(id); live {
			return fmt.Errorf("%s: dead object %d reported live at %d by Addr", name, id, a)
		}
	}
	return nil
}

// auditLayout performs the Walker-based layout checks.
func auditLayout(name string, alloc heapsim.Allocator, w heapsim.Walker, led *Ledger) error {
	regions := w.Regions()
	byName := make(map[string]heapsim.Region, len(regions))
	var extent int64
	for _, r := range regions {
		if r.End < r.Base {
			return fmt.Errorf("%s: region %q ends at %d before its base %d", name, r.Name, r.End, r.Base)
		}
		if _, dup := byName[r.Name]; dup {
			return fmt.Errorf("%s: duplicate region %q", name, r.Name)
		}
		byName[r.Name] = r
		extent += r.End - r.Base
	}
	sorted := append([]heapsim.Region(nil), regions...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Base < sorted[j].Base })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Base < sorted[i-1].End {
			return fmt.Errorf("%s: regions %q and %q overlap", name, sorted[i-1].Name, sorted[i].Name)
		}
	}
	if hs := alloc.HeapSize(); extent != hs {
		return fmt.Errorf("%s: region extents sum to %d bytes, HeapSize() reports %d", name, extent, hs)
	}

	spans := make(map[string][]heapsim.Span, len(regions))
	liveSeen := make(map[trace.ObjectID]heapsim.Span, len(led.live))
	var liveBytes int64
	err := w.Walk(func(s heapsim.Span) error {
		r, ok := byName[s.Region]
		if !ok {
			return fmt.Errorf("span at %d in undeclared region %q", s.Addr, s.Region)
		}
		if s.Size <= 0 {
			return fmt.Errorf("span at %d in %q has size %d", s.Addr, s.Region, s.Size)
		}
		if s.Addr < r.Base || s.Addr+s.Size > r.End {
			return fmt.Errorf("span [%d,%d) escapes region %q [%d,%d)",
				s.Addr, s.Addr+s.Size, r.Name, r.Base, r.End)
		}
		if !s.Free {
			if s.Payload < 0 || s.Payload > s.Size {
				return fmt.Errorf("object %d at %d has payload %d in a %d-byte span",
					s.Obj, s.Addr, s.Payload, s.Size)
			}
			if prev, dup := liveSeen[s.Obj]; dup {
				return fmt.Errorf("object %d walked twice, at %d and %d", s.Obj, prev.Addr, s.Addr)
			}
			liveSeen[s.Obj] = s
			liveBytes += s.Payload
		}
		spans[s.Region] = append(spans[s.Region], s)
		return nil
	})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}

	for _, r := range regions {
		ss := spans[r.Name]
		sort.Slice(ss, func(i, j int) bool { return ss[i].Addr < ss[j].Addr })
		for i := 1; i < len(ss); i++ {
			prev, cur := ss[i-1], ss[i]
			if cur.Addr < prev.Addr+prev.Size {
				return fmt.Errorf("%s: %q spans [%d,%d) and [%d,%d) overlap", name, r.Name,
					prev.Addr, prev.Addr+prev.Size, cur.Addr, cur.Addr+cur.Size)
			}
			if r.Coalesced && prev.Free && cur.Free && cur.Addr == prev.Addr+prev.Size {
				return fmt.Errorf("%s: %q has adjacent free spans at %d and %d (missed coalesce)",
					name, r.Name, prev.Addr, cur.Addr)
			}
		}
		if r.Tiled {
			at := r.Base
			for _, s := range ss {
				if s.Addr != at {
					return fmt.Errorf("%s: %q gap or overlap: span at %d, expected %d", name, r.Name, s.Addr, at)
				}
				at += s.Size
			}
			if at != r.End {
				return fmt.Errorf("%s: %q spans cover up to %d, region ends at %d", name, r.Name, at, r.End)
			}
		}
	}

	// The walked live set must be the ledger's, byte for byte.
	if len(liveSeen) != len(led.live) {
		return fmt.Errorf("%s: layout holds %d live objects, trace says %d", name, len(liveSeen), len(led.live))
	}
	if liveBytes != led.liveBytes {
		return fmt.Errorf("%s: layout holds %d live payload bytes, trace says %d", name, liveBytes, led.liveBytes)
	}
	for id, size := range led.live {
		s, ok := liveSeen[id]
		if !ok {
			return fmt.Errorf("%s: live object %d missing from walked layout", name, id)
		}
		if s.Payload != size {
			return fmt.Errorf("%s: object %d walked with payload %d, trace allocated %d", name, id, s.Payload, size)
		}
		a, live := alloc.Addr(id)
		if !live {
			return fmt.Errorf("%s: live object %d reported dead by Addr", name, id)
		}
		if a < s.Addr || a+size > s.Addr+s.Size {
			return fmt.Errorf("%s: object %d payload [%d,%d) escapes its span [%d,%d)",
				name, id, a, a+size, s.Addr, s.Addr+s.Size)
		}
	}
	return nil
}

// applyEvent feeds one event to an allocator with the oracle's verdict and
// returns that verdict (false for a free). A SiteArena driven by a
// *profile.Mapper routes per site, the rule core.RunSimOracle applies:
// a predicted-short allocation goes to the pool its mapped site names,
// SiteKey.ID, and any other allocation to Alloc.
func applyEvent(alloc heapsim.Allocator, ev trace.Event, pred profile.Oracle) (bool, error) {
	switch ev.Kind {
	case trace.KindAlloc:
		sited, isSited := alloc.(*heapsim.SiteArena)
		mapper, isMapped := pred.(*profile.Mapper)
		if isSited && isMapped {
			key, short := mapper.Site(ev.Chain, ev.Size)
			if short {
				return true, sited.AllocAt(ev.Obj, ev.Size, key.ID())
			}
			return false, sited.Alloc(ev.Obj, ev.Size, false)
		}
		short := pred != nil && pred.PredictShort(ev.Chain, ev.Size)
		return short, alloc.Alloc(ev.Obj, ev.Size, short)
	case trace.KindFree:
		return false, alloc.Free(ev.Obj)
	default:
		return false, fmt.Errorf("bad kind %d", ev.Kind)
	}
}
