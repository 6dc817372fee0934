package check

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/heapsim"
	"repro/internal/trace"
)

// Factory names an allocator construction; the differ and the property
// runner build fresh instances per replay so no state leaks between
// cases.
type Factory struct {
	Name string
	New  func() heapsim.Allocator
}

// defaultHotSizes seeds Custom's per-size fast paths in property runs;
// the models audit derives real hot sizes from the training profile
// instead.
var defaultHotSizes = []int64{16, 24, 32, 48, 64, 96, 128, 256}

// Factories returns construction recipes for the named allocators, or
// all of heapsim.Names in report order when names is empty. Unknown
// names error, naming every valid allocator.
func Factories(names ...string) ([]Factory, error) {
	if len(names) == 0 {
		names = heapsim.Names
	}
	out := make([]Factory, len(names))
	for i, n := range names {
		if _, err := heapsim.New(n, nil); err != nil {
			return nil, err
		}
		out[i] = Factory{Name: n, New: func() heapsim.Allocator {
			a, _ := heapsim.New(n, defaultHotSizes)
			return a
		}}
	}
	return out, nil
}

// AllocatorNames returns the canonical names of every checkable
// allocator, in Factories order.
func AllocatorNames() []string { return slices.Clone(heapsim.Names) }

// participant is one allocator in a lockstep differential replay.
type participant struct {
	name  string
	alloc heapsim.Allocator
}

// Diff replays one trace source through every factory's allocator in
// lockstep and asserts policy-independent agreement:
//
//   - every allocator accepts every legal event (a rejection any sibling
//     accepted is a divergence, not just an error);
//   - each allocator's state passes the full invariant audit against the
//     shared ledger on the stride — which pins the policy-independent
//     observables to the same values for all of them: identical live
//     sets, identical Allocs/Frees, identical live payload bytes;
//   - Addr liveness agrees across allocators for ledger-live ids and for
//     sampled dead ids.
//
// Policy-dependent observables (placement addresses, heap sizes, probe
// counts) are free to differ; that is the point of comparing policies.
func Diff(src trace.Source, fs []Factory, opt Options) error {
	if len(fs) == 0 {
		return fmt.Errorf("check: no allocators to diff")
	}
	parts := make([]participant, len(fs))
	for i, f := range fs {
		parts[i] = participant{name: f.Name, alloc: f.New()}
	}
	led := NewLedger(defaultDeadSample)
	audit := func(i int, when string) error {
		for _, p := range parts {
			if err := AuditState(p.name, p.alloc, led); err != nil {
				return fmt.Errorf("%s: %w", when, err)
			}
		}
		return nil
	}
	blk := trace.NewEventBlock(trace.DefaultBlockLen)
	n := 0 // events replayed before the current block
	for {
		err := src.NextBlock(blk)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for k := 0; k < blk.N; k++ {
			i, ev := n+k, blk.Event(k)
			if err := led.Apply(ev); err != nil {
				return fmt.Errorf("event %d: %w", i, err)
			}
			for _, p := range parts {
				if _, err := applyEvent(p.alloc, ev, opt.Predict); err != nil {
					return fmt.Errorf("event %d: %s diverged: rejected legal event: %w", i, p.name, err)
				}
			}
			if opt.Stride > 0 && (i+1)%opt.Stride == 0 {
				if err := audit(i, fmt.Sprintf("after event %d", i)); err != nil {
					return err
				}
			}
		}
		n += blk.N
	}
	if err := audit(n, fmt.Sprintf("at end of trace (%d events)", n)); err != nil {
		return err
	}
	// The audits prove each allocator agrees with the ledger; close the
	// loop with a direct cross-allocator probe of the liveness surface.
	ref := parts[0]
	for id := range led.live {
		for _, p := range parts[1:] {
			_, a := ref.alloc.Addr(id)
			_, b := p.alloc.Addr(id)
			if a != b {
				return fmt.Errorf("liveness disagreement on object %d: %s says %v, %s says %v",
					id, ref.name, a, p.name, b)
			}
		}
	}
	return nil
}
