package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// heapPeak keeps the largest live heap the runtime reported at the end of
// a GC cycle. A finalizer on a throwaway sentinel runs after each cycle
// that collects it, reads /gc/heap/live:bytes and re-arms on a fresh
// sentinel. The sentinel is big enough to get a heap slot of its own: a
// zero-size object has none and a tiny pointer-free one may share its
// slot, and a finalizer on either never runs, so the peak would read 0.
type heapPeak struct {
	max atomic.Uint64
}

type gcSentinel struct{ _ [64]byte }

func startHeapPeak() *heapPeak {
	h := &heapPeak{}
	h.arm()
	return h
}

func (h *heapPeak) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		h.observe(liveHeapBytes())
		h.arm()
	})
}

func (h *heapPeak) observe(v uint64) {
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// take returns the peak since the last take, including the cycle that
// ended most recently, and starts a new window.
func (h *heapPeak) take() uint64 {
	h.observe(liveHeapBytes())
	return h.max.Swap(0)
}

// liveHeapBytes is the live heap marked by the most recent GC cycle.
func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeCounters are the cumulative Go runtime figures the traced run
// reports as deltas over the timed call.
type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64()}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocBytes - o.allocBytes, c.gcCycles - o.gcCycles, c.gcCPU - o.gcCPU}
}

// cpuTime is the process's user plus system CPU time so far. Getrusage
// fails only on a bad argument; should it fail, cpu_s reads 0, which the
// self-tests reject.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile interpolates linearly between the closest ranks of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
