package obs

import "sync"

// DefaultHeatmapBins is the address-space heatmap's column count when
// Options.HeatmapBins is zero: wide enough to show where live data
// clusters, narrow enough to render in a terminal.
const DefaultHeatmapBins = 32

// MaxHeatmapBins is the widest heatmap a command accepts. The scanner
// copies a bins-long row at every timeline sample and keeps up to
// maxHeatmapRows of them, so this caps a heatmap at 4 MiB.
const MaxHeatmapBins = 1024

// maxHeatmapRows bounds a heatmap's memory the same way
// maxTimelineSamples bounds the timeline: when full, every other row is
// kept, so arbitrarily long runs degrade time resolution instead of
// growing without bound.
const maxHeatmapRows = 512

// HeatmapRow is one timeline row of the address-space occupancy heatmap.
// The allocator's region windows are packed end to end (holes between
// windows excluded) into a [0, Extent) span and split into the heatmap's
// fixed bin count; each cell counts the live-block bytes that fall in
// its bin, so a cell at bin width is fully occupied and 0 is empty.
type HeatmapRow struct {
	Clock  int64   `json:"clock"`
	Extent int64   `json:"extent"` // packed address-space bytes the bins cover
	Cells  []int64 `json:"cells"`
}

// Heatmap is the fixed-width address-space occupancy record: Bins columns
// by one row per timeline sample. A non-nil heatmap with no rows means
// the scanner ran but never sampled — distinguishable from "scanner not
// enabled" (nil).
type Heatmap struct {
	Bins int          `json:"bins"`
	Rows []HeatmapRow `json:"rows,omitempty"`
}

// CellsSum totals every cell of every row — a cheap scalar fingerprint
// of the whole heatmap, used by Flatten for exact-equality gating.
func (h *Heatmap) CellsSum() int64 {
	if h == nil {
		return 0
	}
	var sum int64
	for _, r := range h.Rows {
		for _, c := range r.Cells {
			sum += c
		}
	}
	return sum
}

// heatmapRec accumulates heatmap rows with the bounded-memory policy.
type heatmapRec struct {
	mu   sync.Mutex
	bins int
	rows []HeatmapRow
}

func newHeatmapRec(bins int) *heatmapRec {
	if bins <= 0 {
		bins = DefaultHeatmapBins
	}
	return &heatmapRec{bins: bins}
}

func (h *heatmapRec) record(r HeatmapRow) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rows = append(h.rows, r)
	if len(h.rows) >= maxHeatmapRows {
		keep := h.rows[:0]
		for i := 0; i < len(h.rows); i += 2 {
			keep = append(keep, h.rows[i])
		}
		h.rows = keep
	}
}

// snapshot deep-copies the accumulated rows.
func (h *heatmapRec) snapshot() *Heatmap {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := &Heatmap{Bins: h.bins}
	if len(h.rows) > 0 {
		out.Rows = make([]HeatmapRow, len(h.rows))
		for i, r := range h.rows {
			cp := r
			cp.Cells = append([]int64(nil), r.Cells...)
			out.Rows[i] = cp
		}
	}
	return out
}
