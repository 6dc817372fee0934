package obs

import (
	"math/bits"
	"sync/atomic"
)

// HistKind selects a histogram's bucket geometry.
type HistKind uint8

const (
	// Log2 buckets suit sizes and lifetimes: bucket i counts values v
	// with bits.Len64(v) == i, i.e. bucket 0 holds 0, bucket 1 holds 1,
	// bucket i holds [2^(i-1), 2^i - 1] for i >= 2.
	Log2 HistKind = iota
	// Linear buckets suit search lengths and scan steps: bucket i counts
	// values in [i*Width, (i+1)*Width).
	Linear
)

// String names the kind for exports.
func (k HistKind) String() string {
	if k == Linear {
		return "linear"
	}
	return "log2"
}

// Histogram is a fixed-bucket histogram with an overflow bucket, a total
// sum, and a maximum. Observe is lock-free; all methods are safe for
// concurrent use. Negative values clamp to zero. The observation count is
// not kept apart: it is the bucket sum plus the overflow, so a snapshot's
// count always agrees with its buckets.
type Histogram struct {
	kind   HistKind
	width  int64 // linear bucket width (unused for log2)
	counts []atomic.Int64
	over   atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// NewLog2Histogram returns a histogram with the given number of log2
// buckets (plus overflow). Bucket i's upper bound is 2^i - 1.
func NewLog2Histogram(buckets int) *Histogram {
	if buckets <= 0 {
		buckets = 32
	}
	return &Histogram{kind: Log2, counts: make([]atomic.Int64, buckets)}
}

// NewLinearHistogram returns a histogram with the given bucket width and
// count (plus overflow). Bucket i covers [i*width, (i+1)*width).
func NewLinearHistogram(width int64, buckets int) *Histogram {
	if width <= 0 {
		width = 1
	}
	if buckets <= 0 {
		buckets = 64
	}
	return &Histogram{kind: Linear, width: width, counts: make([]atomic.Int64, buckets)}
}

// bucketIndex maps a value to its bucket, or -1 for overflow.
func (h *Histogram) bucketIndex(v int64) int {
	var i int
	if h.kind == Log2 {
		i = bits.Len64(uint64(v))
	} else {
		i = int(v / h.width)
	}
	if i >= len(h.counts) {
		return -1
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if i := h.bucketIndex(v); i >= 0 {
		h.counts[i].Add(1)
	} else {
		h.over.Add(1)
	}
	h.sum.Add(v)
	h.raiseMax(v)
}

// Fold adds observations counted outside the histogram: counts[i] more
// values in bucket i, overflow more past the last bucket, sum more in the
// total, and max as a candidate maximum. A single-writer hot path buckets
// into plain fields exactly as h would and folds them in at its
// publication points; counts must be no longer than h's bucket count.
func (h *Histogram) Fold(counts []int64, overflow, sum, max int64) {
	for i, c := range counts {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
	if overflow != 0 {
		h.over.Add(overflow)
	}
	if sum != 0 {
		h.sum.Add(sum)
	}
	h.raiseMax(max)
}

func (h *Histogram) raiseMax(v int64) {
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Count returns the number of observations: the bucket sum plus the
// overflow.
func (h *Histogram) Count() int64 {
	n := h.over.Load()
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observed value (0 before any observation).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the average observed value (0 before any observation).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Snapshot captures the histogram's state for export.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Kind:     h.kind.String(),
		Width:    h.width,
		Counts:   make([]int64, len(h.counts)),
		Overflow: h.over.Load(),
		Sum:      h.sum.Load(),
		Max:      h.max.Load(),
	}
	s.Count = s.Overflow
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// HistogramSnapshot is the exported form of a Histogram.
type HistogramSnapshot struct {
	Kind     string  `json:"kind"`            // "log2" or "linear"
	Width    int64   `json:"width,omitempty"` // linear bucket width
	Counts   []int64 `json:"counts"`
	Overflow int64   `json:"overflow,omitempty"`
	Count    int64   `json:"count"`
	Sum      int64   `json:"sum"`
	Max      int64   `json:"max"`
}

// BucketBounds returns bucket i's inclusive value range.
func (s HistogramSnapshot) BucketBounds(i int) (lo, hi int64) {
	if s.Kind == "linear" {
		w := s.Width
		if w <= 0 {
			w = 1
		}
		return int64(i) * w, int64(i+1)*w - 1
	}
	if i == 0 {
		return 0, 0
	}
	return int64(1) << (i - 1), int64(1)<<i - 1
}

// Mean returns the snapshot's average observed value.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
