package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/expfmt"
)

func testServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(core.DefaultConfig(0.02), 2)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return srv, ts
}

// waitDone polls /jobs until every job has left the queue, failing the
// test on timeout.
func waitDone(t *testing.T, ts *httptest.Server) []jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs")
		if err != nil {
			t.Fatalf("GET /jobs: %v", err)
		}
		var views []jobView
		err = json.NewDecoder(resp.Body).Decode(&views)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode /jobs: %v", err)
		}
		settled := true
		for _, v := range views {
			if v.Status == statusQueued || v.Status == statusRunning {
				settled = false
			}
		}
		if settled {
			return views
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs did not settle: %+v", views)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var body struct {
		Status  string         `json:"status"`
		Jobs    map[string]int `json:"jobs"`
		Queue   map[string]int `json:"queue"`
		Workers map[string]int `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" {
		t.Errorf("status = %q, want ok", body.Status)
	}
	if body.Jobs["done"] != 0 || body.Jobs["queued"] != 0 {
		t.Errorf("fresh server has jobs: %v", body.Jobs)
	}
	// Saturation signals: queue depth/cap and busy/total workers.
	if body.Queue["depth"] != 0 || body.Queue["cap"] != queueCap {
		t.Errorf("queue = %v, want depth 0 cap %d", body.Queue, queueCap)
	}
	if body.Workers["total"] != 2 || body.Workers["busy"] != 0 {
		t.Errorf("workers = %v, want total 2 busy 0", body.Workers)
	}
}

func TestRunJobLifecycle(t *testing.T) {
	_, ts := testServer(t)

	resp, err := http.Post(ts.URL+"/run", "application/json",
		strings.NewReader(`{"model":"gawk","allocator":"arena"}`))
	if err != nil {
		t.Fatal(err)
	}
	var accepted jobView
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /run status = %d, want 202", resp.StatusCode)
	}
	if accepted.ID != 1 || accepted.Spec.Predictor != "true" {
		t.Errorf("accepted job = %+v, want id 1 with default predictor", accepted)
	}

	// Unknown model is a 400, not a queued failure.
	resp, err = http.Post(ts.URL+"/run", "application/json",
		strings.NewReader(`{"model":"doom","allocator":"arena"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad model status = %d, want 400", resp.StatusCode)
	}

	views := waitDone(t, ts)
	if len(views) != 1 || views[0].Status != statusDone {
		t.Fatalf("jobs after drain = %+v", views)
	}
	if views[0].Clock <= 0 {
		t.Errorf("done job clock = %d, want > 0", views[0].Clock)
	}
}

// TestRunRejectsOversizedBody: a POST /run body past maxRunBody — here
// one huge string field — is refused with 413 before the decoder buffers
// it, enqueues nothing, and leaves the server answering.
func TestRunRejectsOversizedBody(t *testing.T) {
	_, ts := testServer(t)
	body := `{"model":"` + strings.Repeat("x", 4*maxRunBody) + `","allocator":"arena"}`
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST /run status = %d, want 413", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string         `json:"status"`
		Jobs   map[string]int `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz after oversized body = %d %q, want 200 ok", resp.StatusCode, health.Status)
	}
	for status, n := range health.Jobs {
		if n != 0 {
			t.Errorf("oversized body left %d %s job(s)", n, status)
		}
	}
	if views := waitDone(t, ts); len(views) != 0 {
		t.Fatalf("oversized body enqueued jobs: %+v", views)
	}
}

func TestMetricsRoundTripExact(t *testing.T) {
	_, ts := testServer(t)
	for _, body := range []string{
		`{"model":"gawk","allocator":"arena"}`,
		`{"model":"cfrac","allocator":"firstfit","predictor":"none"}`,
	} {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	waitDone(t, ts)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := raw.String()
	for _, want := range []string{
		`lp_clock_bytes{allocator="arena",job="1",program="gawk"}`,
		`lp_clock_bytes{allocator="firstfit",job="2",program="cfrac"}`,
		"# TYPE lp_clock_bytes counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
	if n := strings.Count(text, "# TYPE lp_clock_bytes counter"); n != 1 {
		t.Errorf("lp_clock_bytes TYPE line appears %d times, want 1 (Gather merge)", n)
	}

	// The exposition must survive a parse → re-render byte-exactly.
	fams, err := expfmt.Parse(bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatalf("Parse(/metrics): %v", err)
	}
	var rendered bytes.Buffer
	if err := expfmt.WriteFamilies(&rendered, fams); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw.Bytes(), rendered.Bytes()) {
		t.Error("/metrics does not round-trip byte-exactly through the parser")
	}
}

// TestMetricsLiveMidReplay scrapes while jobs are in flight: the
// exposition must stay parseable and every re-render byte-exact even as
// collectors advance under the scrape.
func TestMetricsLiveMidReplay(t *testing.T) {
	_, ts := testServer(t)
	for _, body := range []string{
		`{"model":"gawk","allocator":"arena"}`,
		`{"model":"gawk","allocator":"bestfit"}`,
		`{"model":"perl","allocator":"bsd"}`,
	} {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	sawLive := false
	for i := 0; i < 50; i++ {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var raw bytes.Buffer
		_, err = raw.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if raw.Len() == 0 {
			continue
		}
		fams, err := expfmt.Parse(bytes.NewReader(raw.Bytes()))
		if err != nil {
			t.Fatalf("scrape %d unparseable: %v", i, err)
		}
		var rendered bytes.Buffer
		if err := expfmt.WriteFamilies(&rendered, fams); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw.Bytes(), rendered.Bytes()) {
			t.Fatalf("scrape %d not byte-exact after re-render", i)
		}
		if strings.Contains(raw.String(), "lp_clock_bytes") {
			sawLive = true
		}
		// Served jobs always run with the heap scanner on, so any scrape
		// that sees a started job also sees the lp_heap_* topology
		// families (at minimum the always-on scan counter and heatmap
		// row/bin gauges) live, mid-replay.
		if strings.Contains(raw.String(), "lp_clock_bytes") &&
			!strings.Contains(raw.String(), "lp_heap_scan_samples") {
			t.Fatalf("scrape %d has a live job but no lp_heap_ families", i)
		}
	}
	if !sawLive {
		t.Error("no scrape observed a started job (all 50 raced ahead of the workers?)")
	}
	waitDone(t, ts)
}

func TestSnapshotEndpoint(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/run", "application/json",
		strings.NewReader(`{"model":"gawk","allocator":"arena"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitDone(t, ts)

	resp, err = http.Get(ts.URL + "/snapshot/1.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status = %d", resp.StatusCode)
	}
	snap, err := obs.ReadJSON(resp.Body)
	if err != nil {
		t.Fatalf("snapshot does not decode: %v", err)
	}
	if snap.Schema != obs.SnapshotSchema || snap.Program != "gawk" || snap.Allocator != "arena" {
		t.Errorf("snapshot = schema %d program %q allocator %q", snap.Schema, snap.Program, snap.Allocator)
	}
	if snap.Clock <= 0 {
		t.Errorf("snapshot clock = %d, want > 0", snap.Clock)
	}
	// Served jobs run with the heap scanner on, so the downloadable
	// snapshot carries the full topology: lpstats renders its
	// fragmentation-decomposition table and heatmap from exactly this
	// file (it keys off heap.scan_samples and the heatmap matrix).
	if snap.Counters["heap.scan_samples"] <= 0 {
		t.Error("snapshot has no heap.scan_samples; lpstats cannot render the frag table")
	}
	if snap.Heatmap == nil || len(snap.Heatmap.Rows) == 0 {
		t.Error("snapshot has no heatmap rows")
	}
	if n := int64(len(snap.Timeline)); snap.Counters["heap.scan_samples"] != n {
		t.Errorf("scan_samples = %d, timeline has %d samples", snap.Counters["heap.scan_samples"], n)
	}

	for _, path := range []string{"/snapshot/99.json", "/snapshot/1", "/snapshot/x.json"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s status = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestEventsStream(t *testing.T) {
	srv, ts := testServer(t)

	req, err := http.NewRequest("GET", ts.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	post, err := http.Post(ts.URL+"/run", "application/json",
		strings.NewReader(`{"model":"gawk","allocator":"arena"}`))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()

	// Read frames until the job reports done; the stream must carry job
	// transitions and at least one live sample.
	sc := bufio.NewScanner(resp.Body)
	events := map[string]int{}
	var lastData string
	done := false
	for !done && sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			events[ev]++
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			lastData = data
			if strings.Contains(data, `"status":"done"`) {
				done = true
			}
		}
	}
	if !done {
		t.Fatalf("stream ended before the job finished (last data %q, err %v)", lastData, sc.Err())
	}
	if events["job"] < 2 {
		t.Errorf("saw %d job transitions, want >= 2 (queued/running/done)", events["job"])
	}
	if events["sample"] == 0 {
		t.Error("no timeline samples streamed")
	}

	// Drain: the server must release remaining subscribers.
	srv.shutdown()
	drainDeadline := time.After(5 * time.Second)
	finished := make(chan struct{})
	go func() {
		for sc.Scan() {
		}
		close(finished)
	}()
	select {
	case <-finished:
	case <-drainDeadline:
		t.Fatal("SSE stream did not close on shutdown")
	}
}

// flushHookWriter is a streaming ResponseWriter whose first Flush runs
// onFlush, as a client acting the moment it sees the stream's headers
// would, and which closes seen once the body contains want. Only the
// handler touches it until the handler returns.
type flushHookWriter struct {
	header  http.Header
	onFlush func()
	want    string
	seen    chan struct{}
	body    bytes.Buffer
}

func (w *flushHookWriter) Header() http.Header { return w.header }

func (w *flushHookWriter) WriteHeader(int) {}

func (w *flushHookWriter) Write(p []byte) (int, error) {
	n, err := w.body.Write(p)
	if w.want != "" && strings.Contains(w.body.String(), w.want) {
		w.want = ""
		close(w.seen)
	}
	return n, err
}

func (w *flushHookWriter) Flush() {
	if f := w.onFlush; f != nil {
		w.onFlush = nil
		f()
	}
}

// TestEventsSubscribedBeforeHeaders publishes a job from the stream's
// first Flush, as a client posting /run right after the headers would:
// the job's frame must reach that stream.
func TestEventsSubscribedBeforeHeaders(t *testing.T) {
	srv := newServer(core.DefaultConfig(0.02), 1)
	defer srv.shutdown()
	j := &job{ID: 7, Spec: core.MatrixJob{Model: "gawk", Allocator: "arena", Predictor: "true"}, status: statusQueued}
	const frame = "event: job\ndata: {\"id\":7,"
	w := &flushHookWriter{
		header:  http.Header{},
		onFlush: func() { srv.broker.publishJob(j) },
		want:    frame,
		seen:    make(chan struct{}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		srv.handleEvents(w, httptest.NewRequest("GET", "/events", nil).WithContext(ctx))
		close(done)
	}()
	select {
	case <-w.seen:
	case <-time.After(2 * time.Second):
	}
	cancel()
	<-done
	if got := w.body.String(); !strings.Contains(got, frame) {
		t.Fatalf("job published at the first flush never reached the stream:\n%s", got)
	}
}

// TestEventsHeartbeat shortens the heartbeat interval and checks an idle
// stream still carries periodic comments, so proxies see traffic.
func TestEventsHeartbeat(t *testing.T) {
	old := heartbeatInterval
	heartbeatInterval = 20 * time.Millisecond
	defer func() { heartbeatInterval = old }()

	srv, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	beats := 0
	deadline := time.After(5 * time.Second)
	got := make(chan string)
	go func() {
		for sc.Scan() {
			got <- sc.Text()
		}
		close(got)
	}()
	for beats < 2 {
		select {
		case line, ok := <-got:
			if !ok {
				t.Fatalf("stream closed after %d heartbeats (err %v)", beats, sc.Err())
			}
			if line == ": heartbeat" {
				beats++
			}
		case <-deadline:
			t.Fatalf("saw %d heartbeats in 5s, want 2", beats)
		}
	}
	srv.shutdown()
	for range got {
	}
}

func TestShutdownDrainsQueuedJobs(t *testing.T) {
	srv, ts := testServer(t)
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/run", "application/json",
			strings.NewReader(`{"model":"gawk","allocator":"arena"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %d status = %d", i, resp.StatusCode)
		}
	}
	srv.shutdown()

	// Every accepted job ran to completion before shutdown returned.
	for _, j := range srv.jobList() {
		j.mu.Lock()
		st := j.status
		j.mu.Unlock()
		if st != statusDone {
			t.Errorf("job %d status after drain = %s, want done", j.ID, st)
		}
	}

	// New submissions are refused with 503.
	resp, err := http.Post(ts.URL+"/run", "application/json",
		strings.NewReader(`{"model":"gawk","allocator":"arena"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown POST /run status = %d, want 503", resp.StatusCode)
	}
}

// TestSubmitShutdownRace hammers submit from several goroutines while
// shutdown closes the queue. A submission that passes the closing check
// must never reach a closed channel (the old unlocked send panicked
// here), and every accepted job must still drain to done.
func TestSubmitShutdownRace(t *testing.T) {
	srv := newServer(core.DefaultConfig(0.02), 2)
	spec := core.MatrixJob{Model: "gawk", Allocator: "arena", Predictor: "true"}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for n := 0; n < 25; n++ {
				srv.submit(spec) // rejected once closing; must never panic
			}
		}()
	}
	close(start)
	srv.shutdown()
	wg.Wait()
	for _, j := range srv.jobList() {
		j.mu.Lock()
		st := j.status
		j.mu.Unlock()
		if st != statusDone {
			t.Errorf("job %d status after drain = %s, want done", j.ID, st)
		}
	}
}

// TestBrokerDropReporting overfills a subscriber's buffer and checks
// unsubscribe surfaces exactly the overflow as the drop count.
func TestBrokerDropReporting(t *testing.T) {
	b := newBroker()
	sub := b.subscribe()
	for i := 0; i < subBuffer+5; i++ {
		b.publish("x", i)
	}
	if n := b.unsubscribe(sub); n != 5 {
		t.Errorf("dropped = %d, want 5", n)
	}
	if n := b.unsubscribe(sub); n != 5 {
		t.Errorf("second unsubscribe dropped = %d, want 5 (idempotent)", n)
	}
}

func TestSubmitValidates(t *testing.T) {
	srv := newServer(core.DefaultConfig(0.02), 1)
	defer srv.shutdown()
	if _, err := srv.submit(core.MatrixJob{Model: "gawk", Allocator: "nope", Predictor: "true"}); err == nil {
		t.Error("bad allocator accepted")
	}
	if _, err := srv.submit(core.MatrixJob{Model: "gawk", Allocator: "arena", Predictor: "maybe"}); err == nil {
		t.Error("bad predictor accepted")
	}
}
