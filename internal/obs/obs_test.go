package obs

import (
	"math/bits"
	"reflect"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("shared")
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestGaugeMax(t *testing.T) {
	var g Gauge
	for _, v := range []int64{3, 10, 7, 10, 2} {
		g.Set(v)
	}
	if g.Value() != 2 {
		t.Errorf("Value = %d, want 2", g.Value())
	}
	if g.Max() != 10 {
		t.Errorf("Max = %d, want 10", g.Max())
	}
}

func TestGaugeMaxConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				g.Set(base + i)
			}
		}(int64(w) * 1000)
	}
	wg.Wait()
	if g.Max() != 8*1000-1 {
		t.Errorf("Max = %d, want %d", g.Max(), 8*1000-1)
	}
}

func TestLog2HistogramBuckets(t *testing.T) {
	h := NewLog2Histogram(5) // buckets 0..4, bucket 4 covers [8,15]
	cases := []struct {
		v    int64
		want int // bucket index, -1 = overflow
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3},
		{8, 4}, {15, 4}, {16, -1}, {1 << 40, -1},
		{-5, 0}, // negatives clamp to zero
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	wantCounts := []int64{2, 1, 2, 2, 2} // includes the clamped -5 in bucket 0
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("log2 bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Overflow != 2 {
		t.Errorf("overflow = %d, want 2", s.Overflow)
	}
	if s.Count != int64(len(cases)) {
		t.Errorf("count = %d, want %d", s.Count, len(cases))
	}
	if s.Max != 1<<40 {
		t.Errorf("max = %d, want %d", s.Max, int64(1)<<40)
	}
	// Bucket bounds must tile [0, 2^4-1] without gaps.
	if lo, hi := s.BucketBounds(0); lo != 0 || hi != 0 {
		t.Errorf("bounds(0) = [%d,%d], want [0,0]", lo, hi)
	}
	prevHi := int64(0)
	for i := 1; i < 5; i++ {
		lo, hi := s.BucketBounds(i)
		if lo != prevHi+1 {
			t.Errorf("bounds(%d) lo = %d, want %d (gap)", i, lo, prevHi+1)
		}
		if hi != int64(1)<<i-1 {
			t.Errorf("bounds(%d) hi = %d, want %d", i, hi, int64(1)<<i-1)
		}
		prevHi = hi
	}
}

func TestLinearHistogramBuckets(t *testing.T) {
	h := NewLinearHistogram(4, 3) // [0,3] [4,7] [8,11], overflow >= 12
	for _, v := range []int64{0, 3, 4, 7, 8, 11, 12, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 2, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("linear bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Overflow != 2 {
		t.Errorf("overflow = %d, want 2", s.Overflow)
	}
	for i := 0; i < 3; i++ {
		lo, hi := s.BucketBounds(i)
		if lo != int64(i)*4 || hi != int64(i)*4+3 {
			t.Errorf("bounds(%d) = [%d,%d], want [%d,%d]", i, lo, hi, i*4, i*4+3)
		}
	}
	if got := s.Mean(); got != (0+3+4+7+8+11+12+100)/8.0 {
		t.Errorf("mean = %g", got)
	}
}

// TestHistogramConcurrent observes from four goroutines and folds
// privately bucketed batches of the same values from four more, while a
// reader snapshots: the count a snapshot derives never falls, and the end
// state equals observing every value once per goroutine.
func TestHistogramConcurrent(t *testing.T) {
	const workers, perW = 8, 5000
	value := func(i int64) int64 { return i * 7919 % (1 << 17) } // past bucket 15 too
	h, want := NewLog2Histogram(16), NewLog2Histogram(16)
	for w := 0; w < workers; w++ {
		for i := int64(0); i < perW; i++ {
			want.Observe(value(i))
		}
	}
	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		last := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := h.Snapshot().Count; n < last {
				t.Errorf("snapshot count fell from %d to %d", last, n)
			} else {
				last = n
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(fold bool) {
			defer wg.Done()
			var counts [16]int64
			var over, sum, max int64
			for i := int64(0); i < perW; i++ {
				v := value(i)
				if !fold {
					h.Observe(v)
					continue
				}
				if b := bits.Len64(uint64(v)); b < len(counts) {
					counts[b]++
				} else {
					over++
				}
				sum += v
				if v > max {
					max = v
				}
				if i%100 == 99 {
					h.Fold(counts[:], over, sum, max)
					counts, over, sum, max = [16]int64{}, 0, 0, 0
				}
			}
		}(w%2 == 1)
	}
	wg.Wait()
	close(stop)
	<-read
	if h.Count() != workers*perW {
		t.Errorf("count = %d, want %d", h.Count(), workers*perW)
	}
	if got, w := h.Snapshot(), want.Snapshot(); !reflect.DeepEqual(got, w) {
		t.Errorf("snapshot %+v, want %+v", got, w)
	}
}

func TestTimelineCadence(t *testing.T) {
	tl := NewTimeline(100)
	if tl.Due(99) {
		t.Error("Due(99) with interval 100")
	}
	if !tl.Due(100) {
		t.Error("not Due(100) with interval 100")
	}
	tl.Record(Sample{Clock: 100, LiveBytes: 1})
	if tl.Due(150) {
		t.Error("Due(150) after recording at 100")
	}
	// A sample far past the boundary advances next past its clock, not
	// just by one interval.
	tl.Record(Sample{Clock: 1234})
	if tl.Due(1299) {
		t.Error("Due(1299) after recording at 1234")
	}
	if !tl.Due(1300) {
		t.Error("not Due(1300) after recording at 1234")
	}
	got := tl.Samples()
	if len(got) != 2 || got[0].Clock != 100 || got[1].Clock != 1234 {
		t.Errorf("samples = %+v", got)
	}
}

func TestTimelineDownsample(t *testing.T) {
	tl := NewTimeline(1)
	for i := 0; i < maxTimelineSamples+10; i++ {
		tl.Record(Sample{Clock: int64(i)})
	}
	n := len(tl.Samples())
	if n >= maxTimelineSamples {
		t.Errorf("samples = %d, want < %d after downsampling", n, maxTimelineSamples)
	}
	if tl.Interval() < 2 {
		t.Errorf("interval = %d, want doubled", tl.Interval())
	}
	// Order must be preserved.
	s := tl.Samples()
	for i := 1; i < len(s); i++ {
		if s[i].Clock <= s[i-1].Clock {
			t.Fatalf("samples out of order at %d: %d then %d", i, s[i-1].Clock, s[i].Clock)
		}
	}
}

func TestMemorySink(t *testing.T) {
	s := NewMemorySink(4)
	for i := 0; i < 10; i++ {
		s.Event(Event{Kind: EvCoalesce, Clock: int64(i)})
	}
	s.Event(Event{Kind: EvHeapGrow, Clock: 10})
	counts := s.Counts()
	if counts["coalesce"] != 10 || counts["heap_grow"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	recent := s.Recent()
	if len(recent) != 4 {
		t.Fatalf("recent = %d events, want 4", len(recent))
	}
	// Window holds the newest events in arrival order.
	for i := 1; i < len(recent); i++ {
		if recent[i].Clock <= recent[i-1].Clock {
			t.Errorf("recent out of order: %+v", recent)
		}
	}
	if recent[len(recent)-1].Kind != EvHeapGrow {
		t.Errorf("last event = %v, want heap_grow", recent[len(recent)-1].Kind)
	}
	if s.Dropped() != 7 {
		t.Errorf("dropped = %d, want 7", s.Dropped())
	}
}

func TestEventKindNames(t *testing.T) {
	want := map[EventKind]string{
		EvArenaReuse:    "arena_reuse",
		EvArenaOverflow: "arena_overflow",
		EvCoalesce:      "coalesce",
		EvHeapGrow:      "heap_grow",
		EvPredictorMiss: "predictor_miss",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("kind %d = %q, want %q", k, k.String(), name)
		}
	}
	if EventKind(200).String() != "unknown" {
		t.Errorf("out-of-range kind = %q", EventKind(200).String())
	}
}

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	// Every method must be callable on nil without panicking.
	c.SetClock(10)
	if c.Now() != 0 {
		t.Error("nil Now != 0")
	}
	if c.Counter("x") != nil || c.Gauge("x") != nil {
		t.Error("nil collector returned a live metric")
	}
	if c.Log2Histogram("x", 8) != nil || c.LinearHistogram("x", 1, 8) != nil {
		t.Error("nil collector returned a live histogram")
	}
	c.Emit(EvCoalesce, 1)
	if c.TimelineDue(1 << 30) {
		t.Error("nil TimelineDue true")
	}
	c.RecordSample(Sample{})
	c.MarkPhase("end")
	c.SetSites(nil)
	if c.Snapshot() != nil {
		t.Error("nil Snapshot != nil")
	}
	if c.Registry() != nil {
		t.Error("nil Registry != nil")
	}
}

func TestCollectorPhases(t *testing.T) {
	c := NewCollector(Options{Label: "test/phases"})
	c.Counter("work").Add(5)
	c.SetClock(100)
	c.MarkPhase("25%")
	c.Counter("work").Add(3)
	c.SetClock(200)
	c.MarkPhase("end")
	s := c.Snapshot()
	if len(s.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(s.Phases))
	}
	if s.Phases[0].Clock != 100 || s.Phases[0].Counters["work"] != 5 {
		t.Errorf("phase 0 = %+v", s.Phases[0])
	}
	if s.Phases[1].Clock != 200 || s.Phases[1].Counters["work"] != 8 {
		t.Errorf("phase 1 = %+v", s.Phases[1])
	}
}

func TestCollectorTimelineDisabled(t *testing.T) {
	c := NewCollector(Options{TimelineInterval: -1})
	if c.TimelineDue(1 << 40) {
		t.Error("disabled timeline is Due")
	}
	c.RecordSample(Sample{Clock: 1})
	if s := c.Snapshot(); len(s.Timeline) != 0 || s.TimelineInterval != 0 {
		t.Errorf("disabled timeline leaked samples: %+v", s.Timeline)
	}
}

func TestRegistryNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count")
	r.Gauge("a.gauge")
	r.Log2Histogram("c.hist", 8)
	got := r.Names()
	want := []string{"a.gauge", "b.count", "c.hist"}
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// Same name resolves to the same handle.
	if r.Counter("b.count") != r.Counter("b.count") {
		t.Error("counter handle not stable")
	}
}
