// Package trace defines the allocation-event traces that drive every
// experiment in this repository, mirroring the role of Larus' AE traces in
// the paper: a trace records, for each allocation, the complete call-chain
// and requested size, and, for each deallocation, which object died.
//
// Time in this package — and everywhere downstream — is measured in *bytes
// allocated*, the paper's lifetime unit (§3.2): the lifetime of an object is
// the number of bytes allocated between its birth and its death.
package trace

import (
	"fmt"

	"repro/internal/callchain"
)

// ObjectID names one live object of a trace. An id is recycled once its
// object is freed, so it names one live object at a time, and
// Object.ID is not unique within a trace. The generators hand out the
// most recently freed id, or the next unused one from 0, so their ids
// stay below the peak live count.
type ObjectID uint64

// Kind discriminates trace events.
type Kind uint8

// Event kinds.
const (
	KindAlloc Kind = iota + 1
	KindFree
)

func (k Kind) String() string {
	switch k {
	case KindAlloc:
		return "alloc"
	case KindFree:
		return "free"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one allocation or deallocation. For KindFree only Obj is
// meaningful.
type Event struct {
	Kind  Kind
	Obj   ObjectID
	Size  int64             // requested bytes (alloc only)
	Chain callchain.ChainID // complete call-chain at birth (alloc only)
	Refs  int64             // modeled heap references to the object over its lifetime (alloc only)
}

// Trace is a full allocation trace plus the interning table its chains live
// in and workload metadata used by the cost and locality models.
type Trace struct {
	Program string // e.g. "cfrac"
	Input   string // e.g. "train" / "test"

	Table  *callchain.Table
	Events []Event

	// FunctionCalls is the total number of function calls the modeled
	// program performed, used to amortize call-chain-encryption cost
	// (paper §5.1 computes CCE cost as calls x 3 instructions / allocs).
	FunctionCalls int64

	// NonHeapRefs is the modeled number of memory references NOT aimed at
	// heap objects, so that Table 2's "Heap Refs %" is computable.
	NonHeapRefs int64
}

// Object is the per-object record produced by Annotate.
type Object struct {
	ID    ObjectID
	Size  int64
	Chain callchain.ChainID
	Refs  int64
	Birth int64 // bytes allocated before this object was born
	// Lifetime is bytes allocated between birth and death. For objects
	// never freed it is total bytes minus birth, and Freed is false.
	Lifetime int64
	Freed    bool
}

// checkAlloc rejects the alloc fields no trace can contain: a negative
// size or reference count. Zero sizes stay legal — apptrace.Recorder can
// record them, and the allocators reject them at replay.
func checkAlloc(ev Event) error {
	if ev.Size < 0 {
		return fmt.Errorf("negative size %d", ev.Size)
	}
	if ev.Refs < 0 {
		return fmt.Errorf("negative refs %d", ev.Refs)
	}
	return nil
}

// Annotate performs the lifetime computation over a materialized trace:
// it returns one Object per allocation, in birth order, with lifetimes in
// bytes allocated. Objects never freed get a lifetime extending to the
// end of the trace (total bytes allocated minus birth) and Freed == false
// — by construction long-lived for any threshold below the remaining
// allocation volume.
//
// Annotate is the slice-shaped twin of AnnotateStream; the two are pinned
// to produce identical Object records. Use AnnotateStream when the trace
// arrives as a Source and memory must stay bounded by the live set, and
// Annotate when the full birth-ordered slice is genuinely needed.
//
// Annotate returns an error if a free names an object that is not live
// (never allocated, or already freed), which would indicate a corrupted
// trace or a generator bug. An id may be reused once its object is freed.
func Annotate(tr *Trace) ([]Object, error) {
	objs := make([]Object, 0, len(tr.Events)/2+1)
	var live LiveSet[int] // live object -> its index in objs
	var bytes int64
	for i, ev := range tr.Events {
		switch ev.Kind {
		case KindAlloc:
			if _, dup := live.Get(ev.Obj); dup {
				return nil, fmt.Errorf("trace: event %d: object %d allocated twice", i, ev.Obj)
			}
			live.Put(ev.Obj, len(objs))
			objs = append(objs, Object{
				ID:    ev.Obj,
				Size:  ev.Size,
				Chain: ev.Chain,
				Refs:  ev.Refs,
				Birth: bytes,
			})
			bytes += ev.Size
		case KindFree:
			j, ok := live.Delete(ev.Obj)
			if !ok {
				return nil, fmt.Errorf("trace: event %d: free of unknown object %d", i, ev.Obj)
			}
			objs[j].Freed = true
			objs[j].Lifetime = bytes - objs[j].Birth
		default:
			return nil, fmt.Errorf("trace: event %d: bad kind %d", i, ev.Kind)
		}
	}
	for j := range objs {
		if !objs[j].Freed {
			objs[j].Lifetime = bytes - objs[j].Birth
		}
	}
	return objs, nil
}

// Stats summarizes a trace with the Table 2 metrics.
type Stats struct {
	TotalObjects int64
	TotalBytes   int64
	MaxObjects   int64 // maximum simultaneously live objects
	MaxBytes     int64 // maximum simultaneously live bytes
	FreedObjects int64
	HeapRefs     int64   // sum of per-object modeled references
	HeapRefFrac  float64 // HeapRefs / (HeapRefs + NonHeapRefs)
}

// ComputeStats scans a trace once and returns its summary statistics.
// It reports the same errors as Annotate for malformed traces. It is the
// slice-shaped twin of StatsAccum, which streaming producers fold into
// event by event.
func ComputeStats(tr *Trace) (Stats, error) {
	acc := NewStatsAccum()
	for _, ev := range tr.Events {
		if err := acc.Add(ev); err != nil {
			return Stats{}, err
		}
	}
	return acc.Finish(tr.NonHeapRefs), nil
}

// Validate checks trace well-formedness (every free matches a prior alloc,
// no double alloc/free) without building per-object records.
func Validate(tr *Trace) error {
	_, err := ComputeStats(tr)
	return err
}
