package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent 0 marks
// a root span; Run names the workload and seed, shared by every span of
// one run.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// StartUs and EndUs are microseconds since the recorder started.
	StartUs int64 `json:"start_us"`
	EndUs   int64 `json:"end_us"`
	// Count is the work the span covered (events, cells, jobs...), 0 when
	// the span has none of its own.
	Count int64 `json:"count"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced calls pass nil and pay one nil check.
type recorder struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(run string) *recorder { return &recorder{run: run, t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Microseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Run: r.run, ID: len(r.spans) + 1, Parent: parent, Name: name, StartUs: now})
	return len(r.spans)
}

// end closes span id with the work count it covered.
func (r *recorder) end(id int, count int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Microseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndUs = now
	r.spans[id-1].Count = count
}

// add records a span whose times an entry point measured itself.
func (r *recorder) add(name string, parent int, start time.Time, dur time.Duration, count int64) {
	if r == nil {
		return
	}
	s := start.Sub(r.t0).Microseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Run: r.run, ID: len(r.spans) + 1, Parent: parent, Name: name,
		StartUs: s, EndUs: s + dur.Microseconds(), Count: count})
}

// write stores every span as JSON at path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
