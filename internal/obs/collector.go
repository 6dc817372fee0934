package obs

import (
	"sync"
	"sync/atomic"
)

// Options configures a Collector.
type Options struct {
	// Label tags the snapshot (conventionally "program/allocator").
	Label string
	// TimelineInterval is the sampling cadence in bytes allocated:
	// 0 uses DefaultTimelineInterval, negative disables the timeline.
	TimelineInterval int64
	// SampleHook, when set, is called with every recorded timeline
	// sample, after it lands in the timeline. It runs on the replay
	// goroutine and must not block (lpserve streams samples over SSE
	// through it).
	SampleHook func(Sample)
	// EventHook, when set, is called with every emitted event after the
	// event window recorded it. Same contract as SampleHook.
	EventHook func(Event)
	// HeapScan opts the replay into the heap-topology scanner: on every
	// timeline sample the allocator's Walker layout is decomposed into
	// heap.* fragmentation families and an address-space occupancy
	// heatmap. Walkers are read-only, so scanning never perturbs the
	// replay; it only costs time proportional to the block count per
	// sample.
	HeapScan bool
	// HeatmapBins is the heatmap's fixed column count (0 uses
	// DefaultHeatmapBins). Ignored unless HeapScan is set.
	HeatmapBins int
}

// Collector bundles a metric registry, a timeline, and an event window
// (a MemorySink of DefaultEventCap events), plus the bytes-allocated
// clock that stamps events and samples. One Collector observes one
// replay; attach it via core.RunSim's optional trailing argument (or
// heapsim's Observable interface directly).
//
// All methods are safe on a nil *Collector — they no-op or return zero
// values — so call sites can hold an optional collector without guards.
// Hot paths should still cache resolved Counter/Histogram handles and
// branch on the collector pointer once.
type Collector struct {
	Label string

	reg        *Registry
	timeline   *Timeline
	events     *MemorySink
	sampleHook func(Sample)
	eventHook  func(Event)
	heatmap    *heatmapRec // non-nil when HeapScan was requested
	clock      atomic.Int64

	mu        sync.Mutex
	phases    []PhaseSnapshot
	sites     []SiteBytes
	predSites []PredSite
}

// NewCollector returns a collector with the given options.
func NewCollector(opts Options) *Collector {
	c := &Collector{
		Label:      opts.Label,
		reg:        NewRegistry(),
		events:     NewMemorySink(DefaultEventCap),
		sampleHook: opts.SampleHook,
		eventHook:  opts.EventHook,
	}
	if opts.TimelineInterval >= 0 {
		c.timeline = NewTimeline(opts.TimelineInterval)
	}
	if opts.HeapScan {
		c.heatmap = newHeatmapRec(opts.HeatmapBins)
		// The scanner's enabled marker exists from creation, like the
		// heatmap gauges, so a scrape taken before the replay starts
		// (while its predictors train) already shows the scanner on.
		c.reg.Counter("heap.scan_samples")
	}
	return c
}

// Registry returns the collector's metric registry (nil-safe).
func (c *Collector) Registry() *Registry {
	if c == nil {
		return nil
	}
	return c.reg
}

// Counter resolves a named counter (nil-safe: returns nil).
func (c *Collector) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	return c.reg.Counter(name)
}

// Gauge resolves a named gauge (nil-safe: returns nil).
func (c *Collector) Gauge(name string) *Gauge {
	if c == nil {
		return nil
	}
	return c.reg.Gauge(name)
}

// Log2Histogram resolves a named log2 histogram (nil-safe: returns nil).
func (c *Collector) Log2Histogram(name string, buckets int) *Histogram {
	if c == nil {
		return nil
	}
	return c.reg.Log2Histogram(name, buckets)
}

// LinearHistogram resolves a named linear histogram (nil-safe: returns
// nil).
func (c *Collector) LinearHistogram(name string, width int64, buckets int) *Histogram {
	if c == nil {
		return nil
	}
	return c.reg.LinearHistogram(name, width, buckets)
}

// SetClock advances the bytes-allocated clock; the replay loop calls this
// after each allocation so events carry a meaningful timestamp.
func (c *Collector) SetClock(v int64) {
	if c == nil {
		return
	}
	c.clock.Store(v)
}

// Now returns the current bytes-allocated clock.
func (c *Collector) Now() int64 {
	if c == nil {
		return 0
	}
	return c.clock.Load()
}

// Emit stamps and forwards a structured event.
func (c *Collector) Emit(kind EventKind, arg int64) {
	if c == nil {
		return
	}
	ev := Event{Kind: kind, Clock: c.clock.Load(), Arg: arg}
	c.events.Event(ev)
	if c.eventHook != nil {
		c.eventHook(ev)
	}
}

// TimelineDue reports whether the timeline wants a sample at the given
// clock (false when the timeline is disabled).
func (c *Collector) TimelineDue(clock int64) bool {
	if c == nil || c.timeline == nil {
		return false
	}
	return c.timeline.Due(clock)
}

// RecordSample appends a timeline sample.
func (c *Collector) RecordSample(s Sample) {
	if c == nil || c.timeline == nil {
		return
	}
	c.timeline.Record(s)
	if c.sampleHook != nil {
		c.sampleHook(s)
	}
}

// HeapScanEnabled reports whether the collector was created with
// Options.HeapScan (nil-safe: false). The replay loop checks it once to
// decide whether to attach a layout scanner.
func (c *Collector) HeapScanEnabled() bool {
	return c != nil && c.heatmap != nil
}

// HeatmapBins returns the heatmap's configured column count (0 when heap
// scanning is off).
func (c *Collector) HeatmapBins() int {
	if c == nil || c.heatmap == nil {
		return 0
	}
	return c.heatmap.bins
}

// RecordHeatmapRow appends one address-space occupancy row; a no-op
// unless the collector was created with HeapScan.
func (c *Collector) RecordHeatmapRow(r HeatmapRow) {
	if c == nil || c.heatmap == nil {
		return
	}
	c.heatmap.record(r)
}

// MarkPhase snapshots every counter under a phase label; core marks
// replay quartiles so lpstats can show how counts accrued across a run.
func (c *Collector) MarkPhase(label string) {
	if c == nil {
		return
	}
	p := PhaseSnapshot{Label: label, Clock: c.clock.Load(), Counters: c.reg.CounterValues()}
	c.mu.Lock()
	c.phases = append(c.phases, p)
	c.mu.Unlock()
}

// SetSites attaches the per-site allocation ranking (top sites by bytes);
// core computes it during an observed replay.
func (c *Collector) SetSites(sites []SiteBytes) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.sites = sites
	c.mu.Unlock()
}

// Snapshot freezes the collector's state for export. The collector
// remains usable; snapshots are cheap relative to a replay.
func (c *Collector) Snapshot() *Snapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	phases := make([]PhaseSnapshot, len(c.phases))
	copy(phases, c.phases)
	sites := make([]SiteBytes, len(c.sites))
	copy(sites, c.sites)
	var predSites []PredSite
	if len(c.predSites) > 0 {
		predSites = make([]PredSite, len(c.predSites))
		copy(predSites, c.predSites)
	}
	c.mu.Unlock()

	s := &Snapshot{
		Schema:     SnapshotSchema,
		Label:      c.Label,
		Clock:      c.clock.Load(),
		Counters:   c.reg.CounterValues(),
		Gauges:     c.reg.GaugeValues(),
		Histograms: c.reg.HistogramValues(),
		Timings:    c.reg.TimingValues(),
		Phases:     phases,
		Sites:      sites,
		PredSites:  predSites,
	}
	if c.timeline != nil {
		s.Timeline = c.timeline.Samples()
		s.TimelineInterval = c.timeline.Interval()
	}
	if c.heatmap != nil {
		s.Heatmap = c.heatmap.snapshot()
	}
	s.Events = EventSummary{
		Counts:  c.events.Counts(),
		Recent:  c.events.Recent(),
		Dropped: c.events.Dropped(),
	}
	return s
}

// GaugeSnapshot is the exported form of a Gauge.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// PhaseSnapshot is a labeled counter snapshot taken mid-run.
type PhaseSnapshot struct {
	Label    string           `json:"label"`
	Clock    int64            `json:"clock"`
	Counters map[string]int64 `json:"counters"`
}

// SiteBytes ranks one allocation site by volume.
type SiteBytes struct {
	Site   string `json:"site"` // rendered call-chain
	Allocs int64  `json:"allocs"`
	Bytes  int64  `json:"bytes"`
}

// EventSummary is the exported form of the event stream: exact per-kind
// totals plus the retained raw window.
type EventSummary struct {
	Counts  map[string]int64 `json:"counts,omitempty"`
	Recent  []Event          `json:"recent,omitempty"`
	Dropped int64            `json:"dropped,omitempty"`
}

// SnapshotSchema is the current snapshot wire-format version. ReadJSON
// rejects files that do not carry it, so format drift fails loudly
// instead of silently decoding zero values.
const SnapshotSchema = 1

// Snapshot is a complete, serializable view of one observed run. It is
// what `lpsim -obs` writes and `lpstats` renders.
type Snapshot struct {
	Schema    int    `json:"schema"`
	Label     string `json:"label,omitempty"`
	Program   string `json:"program,omitempty"`
	Allocator string `json:"allocator,omitempty"`
	Clock     int64  `json:"clock"` // total bytes allocated

	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Timings are wall-clock duration aggregates (engine cell timings);
	// unlike every other family they are machine-dependent, so regression
	// gates should not threshold them.
	Timings map[string]TimingSnapshot `json:"timings,omitempty"`

	Timeline         []Sample `json:"timeline,omitempty"`
	TimelineInterval int64    `json:"timeline_interval,omitempty"`

	// Heatmap is the address-space occupancy heatmap; non-nil exactly
	// when the replay ran with the heap-topology scanner enabled (a
	// scanned run that never sampled still carries an empty heatmap, so
	// "no fragmentation" and "scanner off" stay distinguishable).
	Heatmap *Heatmap `json:"heatmap,omitempty"`

	Events EventSummary    `json:"events"`
	Phases []PhaseSnapshot `json:"phases,omitempty"`
	Sites  []SiteBytes     `json:"sites,omitempty"`
	// PredSites ranks allocation sites by misprediction volume (false
	// positives by byte-lifetime cost, then false negatives); empty when
	// the replay carried no prediction-quality tracking.
	PredSites []PredSite `json:"pred_sites,omitempty"`
}
