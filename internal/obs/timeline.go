package obs

import (
	"sync"
	"sync/atomic"
)

// Sample is one point on a run's timeline, taken every Interval bytes of
// allocation. The clock is bytes allocated since the start of the run
// (the paper's time unit), so timelines from different machines and
// scales line up exactly.
type Sample struct {
	Clock          int64   `json:"clock"` // bytes allocated so far
	LiveBytes      int64   `json:"live_bytes"`
	LiveObjects    int64   `json:"live_objects"`
	HeapBytes      int64   `json:"heap_bytes"`                // allocator footprint (address space)
	ArenaOccupancy float64 `json:"arena_occupancy,omitempty"` // fraction of arena area in use, 0 for non-arena runs

	// Rolling prediction-accuracy channel: cumulative counts of objects
	// (and their bytes) whose predictions have been resolved at free time
	// by this point on the clock, and how many resolved correctly.
	// Deltas between consecutive samples give windowed accuracy, so
	// calibration drift across a run's phases is visible; zero throughout
	// for replays without prediction tracking.
	PredDecidedObjects int64 `json:"pred_decided_objects,omitempty"`
	PredCorrectObjects int64 `json:"pred_correct_objects,omitempty"`
	PredDecidedBytes   int64 `json:"pred_decided_bytes,omitempty"`
	PredCorrectBytes   int64 `json:"pred_correct_bytes,omitempty"`

	// Heap-topology channel, filled only when the replay runs with the
	// heap scanner enabled. The decomposition identity
	// live_payload + header + internal + external + holes == HeapBytes
	// holds at every scanned sample (the Walker contract makes region
	// extents sum to HeapSize).
	HeapLivePayload     int64 `json:"heap_live_payload,omitempty"`
	HeapHeaderBytes     int64 `json:"heap_header_bytes,omitempty"`
	HeapInternalFrag    int64 `json:"heap_internal_frag,omitempty"`
	HeapExternalFrag    int64 `json:"heap_external_frag,omitempty"`
	HeapHoleBytes       int64 `json:"heap_hole_bytes,omitempty"`
	HeapFreeSpans       int64 `json:"heap_free_spans,omitempty"`
	HeapLargestFreeSpan int64 `json:"heap_largest_free_span,omitempty"`
}

// DefaultTimelineInterval is the default sampling cadence: one sample per
// 64KB of allocation, fine enough to see arena churn (the paper's arena
// area is 64KB) without unbounded growth.
const DefaultTimelineInterval = 64 << 10

// maxTimelineSamples bounds a timeline's memory: when full, the timeline
// keeps every other sample and doubles its interval, so arbitrarily long
// runs degrade resolution instead of growing without bound.
const maxTimelineSamples = 4096

// Timeline records Samples on a bytes-allocated cadence. It is safe for
// concurrent use, though the replay loops drive it from one goroutine.
// Due, asked on every allocation, reads the next boundary without the
// lock; Record stores it under the lock.
type Timeline struct {
	mu       sync.Mutex
	interval int64
	next     atomic.Int64
	samples  []Sample
}

// NewTimeline returns a timeline sampling every interval bytes
// (DefaultTimelineInterval when interval <= 0).
func NewTimeline(interval int64) *Timeline {
	if interval <= 0 {
		interval = DefaultTimelineInterval
	}
	t := &Timeline{interval: interval}
	t.next.Store(interval)
	return t
}

// Due reports whether the clock has crossed the next sampling boundary.
// Callers check Due first so building a Sample (which may probe the
// allocator) is skipped between boundaries.
func (t *Timeline) Due(clock int64) bool {
	return clock >= t.next.Load()
}

// Record appends a sample and advances the sampling boundary past the
// sample's clock. Recording when not Due is allowed (core uses it for a
// final end-of-run sample).
func (t *Timeline) Record(s Sample) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples = append(t.samples, s)
	next := t.next.Load()
	for next <= s.Clock {
		next += t.interval
	}
	t.next.Store(next)
	if len(t.samples) >= maxTimelineSamples {
		keep := t.samples[:0]
		for i := 0; i < len(t.samples); i += 2 {
			keep = append(keep, t.samples[i])
		}
		t.samples = keep
		t.interval *= 2
	}
}

// Interval returns the current sampling interval in bytes (it doubles
// when the sample cap is hit).
func (t *Timeline) Interval() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.interval
}

// Samples returns a copy of the recorded samples.
func (t *Timeline) Samples() []Sample {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Sample, len(t.samples))
	copy(out, t.samples)
	return out
}
