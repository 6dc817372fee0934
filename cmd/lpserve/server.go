package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/expfmt"
)

// jobStatus is a simulation job's lifecycle state.
type jobStatus string

const (
	statusQueued  jobStatus = "queued"
	statusRunning jobStatus = "running"
	statusDone    jobStatus = "done"
	statusFailed  jobStatus = "failed"
)

// job is one submitted matrix cell. The collector is created at start
// and may be scraped (snapshotted) concurrently while the replay runs —
// that is the live half of /metrics.
type job struct {
	ID   int            `json:"id"`
	Spec core.MatrixJob `json:"spec"`

	mu     sync.Mutex
	status jobStatus
	errMsg string
	col    *obs.Collector
	snap   *obs.Snapshot // final snapshot once done
}

// jobView is the /jobs JSON shape.
type jobView struct {
	ID        int            `json:"id"`
	Spec      core.MatrixJob `json:"spec"`
	Status    jobStatus      `json:"status"`
	Error     string         `json:"error,omitempty"`
	Clock     int64          `json:"clock"` // live bytes-allocated clock
	SnapshotP string         `json:"snapshot"`
}

func (j *job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID: j.ID, Spec: j.Spec, Status: j.status, Error: j.errMsg,
		SnapshotP: fmt.Sprintf("/snapshot/%d.json", j.ID),
	}
	v.Clock = j.col.Now() // nil-safe: 0 before start
	return v
}

// snapshot returns the freshest view of the job: the final snapshot when
// done, a live mid-replay snapshot while running, nil before start.
func (j *job) snapshot() *obs.Snapshot {
	j.mu.Lock()
	col, snap, spec := j.col, j.snap, j.Spec
	j.mu.Unlock()
	if snap != nil {
		return snap
	}
	if col == nil {
		return nil
	}
	s := col.Snapshot()
	// The replay tags program/allocator only at finish; a live scrape
	// labels itself from the job spec.
	s.Program, s.Allocator = spec.Model, spec.Allocator
	return s
}

func (j *job) setRunning(col *obs.Collector) {
	j.mu.Lock()
	j.status = statusRunning
	j.col = col
	j.mu.Unlock()
}

func (j *job) finish(snap *obs.Snapshot, err error) {
	j.mu.Lock()
	if err != nil {
		j.status = statusFailed
		j.errMsg = err.Error()
	} else {
		j.status = statusDone
		j.snap = snap
	}
	j.mu.Unlock()
}

// server owns the job queue, the worker pool, and the HTTP surface.
type server struct {
	runner  *core.MatrixRunner
	workers int
	busy    atomic.Int64 // workers currently inside a replay

	mu      sync.Mutex
	jobs    []*job
	closing bool

	queue chan *job
	wg    sync.WaitGroup

	broker *broker

	// drained is closed after the last worker exits, releasing SSE
	// clients before http.Server.Shutdown waits on their handlers.
	drained chan struct{}
}

// queueCap bounds the backlog; submissions beyond it are rejected with
// 503 rather than blocking the handler.
const queueCap = 1024

// newServer builds a server over one experiment config.
func newServer(cfg core.Config, workers int) *server {
	if workers < 1 {
		workers = 1
	}
	s := &server{
		runner:  core.NewMatrixRunner(cfg),
		workers: workers,
		queue:   make(chan *job, queueCap),
		broker:  newBroker(),
		drained: make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	go func() {
		s.wg.Wait()
		close(s.drained)
	}()
	return s
}

// submit validates and enqueues a job. The channel send happens under
// s.mu: the buffered send with default never blocks, and shutdown()
// only calls close(s.queue) after setting s.closing under the same
// lock, so a submission can never race the close and panic. The job is
// appended to s.jobs only once the send succeeds — a full queue leaves
// no phantom job behind in /jobs or /healthz.
func (s *server) submit(spec core.MatrixJob) (*job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil, fmt.Errorf("lpserve: shutting down, not accepting jobs")
	}
	j := &job{ID: len(s.jobs) + 1, Spec: spec, status: statusQueued}
	select {
	case s.queue <- j:
		s.jobs = append(s.jobs, j)
	default:
		s.mu.Unlock()
		return nil, fmt.Errorf("lpserve: job queue is full (%d jobs)", queueCap)
	}
	s.mu.Unlock()
	s.broker.publishJob(j)
	return j, nil
}

// worker drains the queue, running one replay at a time with a live
// collector whose hooks feed the SSE broker.
func (s *server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		id := j.ID
		col := obs.NewCollector(obs.Options{
			Label:      j.Spec.String(),
			SampleHook: func(sm obs.Sample) { s.broker.publishSample(id, sm) },
			EventHook:  func(ev obs.Event) { s.broker.publishEvent(id, ev) },
			// Heap topology is always on for served jobs: a mid-replay
			// /metrics scrape shows the live lp_heap_* fragmentation
			// decomposition and heatmap alongside the counters.
			HeapScan: true,
		})
		j.setRunning(col)
		s.broker.publishJob(j)
		s.busy.Add(1)
		res, err := s.runner.Run(j.Spec, col)
		s.busy.Add(-1)
		j.finish(res.Obs, err)
		s.broker.publishJob(j)
	}
}

// shutdown stops accepting submissions, drains queued and in-flight
// jobs, and wakes every SSE client.
func (s *server) shutdown() {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		<-s.drained
		return
	}
	s.closing = true
	s.mu.Unlock()
	close(s.queue)
	<-s.drained
	s.broker.closeAll()
}

// jobList copies the job slice under the lock.
func (s *server) jobList() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*job(nil), s.jobs...)
}

func (s *server) jobByID(id int) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 1 || id > len(s.jobs) {
		return nil
	}
	return s.jobs[id-1]
}

// routes builds the HTTP surface.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /snapshot/{id}", s.handleSnapshot)
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	counts := map[jobStatus]int{}
	for _, j := range s.jobList() {
		j.mu.Lock()
		counts[j.status]++
		j.mu.Unlock()
	}
	// Queue depth and busy workers let load tests see saturation: depth
	// near queue_cap means submissions will start bouncing with 503s, and
	// busy == total means no spare replay capacity.
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"version": cliutil.Version,
		"jobs": map[string]int{
			"queued":  counts[statusQueued],
			"running": counts[statusRunning],
			"done":    counts[statusDone],
			"failed":  counts[statusFailed],
		},
		"queue": map[string]int{
			"depth": len(s.queue),
			"cap":   queueCap,
		},
		"workers": map[string]int{
			"total": s.workers,
			"busy":  int(s.busy.Load()),
		},
	})
}

func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobList()
	views := make([]jobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.view())
	}
	writeJSON(w, http.StatusOK, views)
}

// maxRunBody caps a POST /run body. A job spec is under 200 bytes, so
// 64 KiB is ample; a larger body is refused before the decoder buffers it.
const maxRunBody = 64 << 10

// handleRun accepts {"model": ..., "allocator": ..., "predictor": ...}
// and enqueues the job. A body over maxRunBody gets 413.
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var spec core.MatrixJob
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRunBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, map[string]string{"error": err.Error()})
		return
	}
	if spec.Predictor == "" {
		spec.Predictor = "true"
	}
	j, err := s.submit(spec)
	if err != nil {
		code := http.StatusBadRequest
		if strings.Contains(err.Error(), "queue") || strings.Contains(err.Error(), "shutting down") {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, j.view())
}

// handleMetrics renders every job's freshest snapshot — live mid-replay
// for running jobs — as one Prometheus exposition.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sets := make([][]expfmt.Family, 0)
	for _, j := range s.jobList() {
		snap := j.snapshot()
		if snap == nil {
			continue
		}
		sets = append(sets, expfmt.Families(snap, map[string]string{
			"job": strconv.Itoa(j.ID),
		}))
	}
	fams, err := expfmt.Gather(sets...)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	expfmt.WriteFamilies(w, fams)
}

func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	idStr, ok := strings.CutSuffix(r.PathValue("id"), ".json")
	if !ok {
		http.Error(w, "want /snapshot/{id}.json", http.StatusNotFound)
		return
	}
	id, err := strconv.Atoi(idStr)
	if err != nil {
		http.Error(w, "bad job id", http.StatusNotFound)
		return
	}
	j := s.jobByID(id)
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	snap := j.snapshot()
	if snap == nil {
		http.Error(w, "job has not started", http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteJSON(w, snap)
}

// heartbeatInterval is how often an idle /events stream emits an SSE
// comment so proxies do not reap the connection and clients can tell a
// quiet stream from a dead one. A variable so tests can shorten it.
var heartbeatInterval = 15 * time.Second

// handleEvents streams job transitions, timeline samples, and structured
// obs events as server-sent events until the client goes away or the
// server drains. Idle streams carry periodic heartbeat comments. The
// client is subscribed before its headers are flushed, so a job it posts
// once it sees them cannot publish a frame the stream misses.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := s.broker.subscribe()
	defer func() {
		// Best-effort: tell the client how many messages its slow
		// consumption cost it before the stream ends.
		if n := s.broker.unsubscribe(sub); n > 0 {
			fmt.Fprintf(w, ": dropped %d messages\n\n", n)
			fl.Flush()
		}
	}()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": lpserve event stream\n\n")
	fl.Flush()

	heartbeat := time.NewTicker(heartbeatInterval)
	defer heartbeat.Stop()
	for {
		select {
		case msg, ok := <-sub.ch:
			if !ok {
				return
			}
			if _, err := w.Write(msg); err != nil {
				return
			}
			fl.Flush()
		case <-heartbeat.C:
			if _, err := io.WriteString(w, ": heartbeat\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.drained:
			return
		}
	}
}
