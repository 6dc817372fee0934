package check

import (
	"fmt"

	"repro/internal/callchain"
	"repro/internal/heapsim"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Relabel returns a copy of the trace whose call-chain table has every
// function renamed to an opaque label, preserving chain structure and
// interning order (so ChainIDs keep their values and the events can be
// shared). Relabeling models recompiling the traced program with
// different symbol names: nothing an allocator may legitimately depend
// on changes.
func Relabel(tr *trace.Trace) *trace.Trace {
	tb := callchain.NewTable()
	rename := make(map[callchain.FuncID]callchain.FuncID, tr.Table.NumFuncs())
	for id := 0; id < tr.Table.NumChains(); id++ {
		old := tr.Table.Funcs(callchain.ChainID(id))
		fs := make([]callchain.FuncID, len(old))
		for i, f := range old {
			nf, ok := rename[f]
			if !ok {
				nf = tb.Func(fmt.Sprintf("relabeled_%d", f))
				rename[f] = nf
			}
			fs[i] = nf
		}
		tb.Intern(fs)
	}
	out := *tr
	out.Table = tb
	return &out
}

// CheckRelabelInvariance asserts the metamorphic property that renaming
// allocation sites never changes first-fit behaviour: FirstFit consults
// only sizes and order, so the original and relabeled traces must
// produce identical placements (every live object at the same address),
// identical operation counts, and identical heap extents. A divergence
// means some layout decision leaked a dependence on chain identity.
func CheckRelabelInvariance(tr *trace.Trace) error {
	a := heapsim.NewFirstFit()
	b := heapsim.NewFirstFit()
	led := NewLedger(1)
	for i, ev := range tr.Events {
		if err := led.Apply(ev); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
		if _, err := applyEvent(a, ev, nil); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	for i, ev := range Relabel(tr).Events {
		if _, err := applyEvent(b, ev, nil); err != nil {
			return fmt.Errorf("relabeled event %d: %w", i, err)
		}
	}
	if a.MaxHeapSize() != b.MaxHeapSize() || a.HeapSize() != b.HeapSize() {
		return fmt.Errorf("relabeling changed firstfit heap extent: %d/%d vs %d/%d",
			a.HeapSize(), a.MaxHeapSize(), b.HeapSize(), b.MaxHeapSize())
	}
	if a.Counts() != b.Counts() {
		return fmt.Errorf("relabeling changed firstfit op counts: %+v vs %+v", a.Counts(), b.Counts())
	}
	for id := range led.live {
		pa, oka := a.Addr(id)
		pb, okb := b.Addr(id)
		if oka != okb || pa != pb {
			return fmt.Errorf("relabeling moved object %d: %d (live=%v) vs %d (live=%v)",
				id, pa, oka, pb, okb)
		}
	}
	return nil
}

// CheckArenaMonotone asserts the metamorphic property that giving the
// arena allocator more arenas never increases ArenaFallbacks: a
// fallback happens only when every arena is pinned by a live object, and
// extra arenas only add places for a bump allocation to land. The trace
// and predictor are held fixed while the arena count sweeps the given
// counts (ascending).
func CheckArenaMonotone(tr *trace.Trace, pred profile.Oracle, counts []int) error {
	prev := int64(-1)
	prevN := 0
	for _, n := range counts {
		ar := heapsim.NewArenaGeometry(n, 4<<10)
		for i, ev := range tr.Events {
			if _, err := applyEvent(ar, ev, pred); err != nil {
				return fmt.Errorf("arenas=%d: event %d: %w", n, i, err)
			}
		}
		fb := ar.Counts().ArenaFallbacks
		if prev >= 0 && fb > prev {
			return fmt.Errorf("raising arena count %d -> %d increased ArenaFallbacks %d -> %d",
				prevN, n, prev, fb)
		}
		prev, prevN = fb, n
	}
	return nil
}
