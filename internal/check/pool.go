package check

import (
	"fmt"
	"io"

	"repro/internal/heapsim"
	"repro/internal/trace"
)

// AuditPool replays a source across a heapsim.Pool, spreading allocations
// round-robin over the members, and audits the pool against the trace's
// own ledger every Options.Stride events (and always at end of trace) —
// the cluster-level counterpart of Diff's per-allocator audit. The pool's
// aggregated state must satisfy every single-allocator invariant: member
// self-checks, op conservation, region disjointness across the
// PoolStride windows, the walked live set reconciling with the ledger,
// and dead-id probes. This is what licenses the cluster simulator to
// treat a pool of simulators as one allocator.
//
// Round-robin placement is deliberate: it exercises every member and is
// routing-policy-agnostic. Policy behavior is the cluster's concern; the
// pool's invariants must hold under any placement.
func AuditPool(src trace.Source, name string, p *heapsim.Pool, opt Options) error {
	led := NewLedger(defaultDeadSample)
	next := 0
	blk := trace.NewEventBlock(trace.DefaultBlockLen)
	n := 0 // events replayed before the current block
	for {
		err := src.NextBlock(blk)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("%s: reading event %d: %w", name, n, err)
		}
		for k := 0; k < blk.N; k++ {
			i, ev := n+k, blk.Event(k)
			if err := led.Apply(ev); err != nil {
				return fmt.Errorf("%s: event %d: %w", name, i, err)
			}
			switch ev.Kind {
			case trace.KindAlloc:
				short := false
				if opt.Predict != nil {
					short = opt.Predict.PredictShort(ev.Chain, ev.Size)
				}
				member := next % p.Members()
				next++
				if err := p.AllocOn(member, ev.Obj, ev.Size, short); err != nil {
					return fmt.Errorf("%s: event %d: %w", name, i, err)
				}
			case trace.KindFree:
				if err := p.Free(ev.Obj); err != nil {
					return fmt.Errorf("%s: event %d: %w", name, i, err)
				}
			}
			if opt.Stride > 0 && (i+1)%opt.Stride == 0 {
				if err := AuditState(name, p, led); err != nil {
					return fmt.Errorf("after event %d: %w", i, err)
				}
			}
		}
		n += blk.N
	}
	if err := AuditState(name, p, led); err != nil {
		return fmt.Errorf("at end of trace: %w", err)
	}
	return nil
}
