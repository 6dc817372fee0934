package obs

import "sync"

// EventKind identifies a structured replay event. The set covers the
// allocator decisions the paper's prose discusses but its tables
// aggregate away.
type EventKind uint8

const (
	// EvArenaReuse: an arena's live count hit zero and it was reset for
	// reuse (Arg = arena index).
	EvArenaReuse EventKind = iota
	// EvArenaOverflow: a predicted-short allocation found every arena
	// pinned and fell back to the general heap (Arg = request size) —
	// the CFRAC pollution failure mode.
	EvArenaOverflow
	// EvCoalesce: free merged two adjacent free blocks (Arg = resulting
	// block size).
	EvCoalesce
	// EvHeapGrow: the heap extended its break or carved a new slab
	// (Arg = growth in bytes).
	EvHeapGrow
	// EvPredictorMiss: a site's short-lived prediction was revoked
	// online after repeatedly pinning its pool (Arg = site key, folded
	// to int64).
	EvPredictorMiss

	numEventKinds = 5
)

var eventKindNames = [numEventKinds]string{
	"arena_reuse", "arena_overflow", "coalesce", "heap_grow", "predictor_miss",
}

// String names the kind for exports.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one structured replay event, stamped with the bytes-allocated
// clock at which it happened.
type Event struct {
	Kind  EventKind `json:"kind"`
	Clock int64     `json:"clock"`
	Arg   int64     `json:"arg,omitempty"`
}

// MemorySink keeps exact per-kind totals and a bounded window of the most
// recent events (a ring buffer): event *counts* are always complete, the
// raw stream is capped so long runs cannot exhaust memory.
type MemorySink struct {
	mu      sync.Mutex
	byKind  [numEventKinds]int64
	events  []Event
	start   int // ring start when full
	cap     int
	dropped int64
}

// DefaultEventCap bounds MemorySink's raw event window.
const DefaultEventCap = 4096

// NewMemorySink returns a sink retaining at most capN raw events
// (DefaultEventCap when capN <= 0).
func NewMemorySink(capN int) *MemorySink {
	if capN <= 0 {
		capN = DefaultEventCap
	}
	return &MemorySink{cap: capN}
}

// Event records one event. It is safe for concurrent use.
func (s *MemorySink) Event(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(ev.Kind) < numEventKinds {
		s.byKind[ev.Kind]++
	}
	if len(s.events) < s.cap {
		s.events = append(s.events, ev)
		return
	}
	s.events[s.start] = ev
	s.start = (s.start + 1) % s.cap
	s.dropped++
}

// Counts returns the exact per-kind event totals, keyed by kind name.
func (s *MemorySink) Counts() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, numEventKinds)
	for k, n := range s.byKind {
		if n > 0 {
			out[EventKind(k).String()] = n
		}
	}
	return out
}

// Recent returns the retained event window in arrival order.
func (s *MemorySink) Recent() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, 0, len(s.events))
	out = append(out, s.events[s.start:]...)
	out = append(out, s.events[:s.start]...)
	return out
}

// Dropped returns how many events fell out of the window.
func (s *MemorySink) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
