package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark must honour.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecListsEveryMetric pins BENCHMARK.json to the metrics the runs
// emit: the same names, once each, in the same order, with the same units.
func TestSpecListsEveryMetric(t *testing.T) {
	s := readSpec(t)
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the runs emit %d", len(s.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if s.EndToEnd[i].Name != m.name || s.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, want %s (%s)", i, s.EndToEnd[i], m.name, m.unit)
		}
	}
	if len(s.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run emits %d", len(s.PerLayer), len(layerMetrics))
	}
	seen := map[string]bool{}
	for i, m := range layerMetrics {
		if seen[m.name] {
			t.Errorf("per-layer metric %s listed twice", m.name)
		}
		seen[m.name] = true
		if s.PerLayer[i].Name != m.name || s.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %+v, want %s (%s)", i, s.PerLayer[i], m.name, m.unit)
		}
	}
	if len(s.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workload), len(workloads))
	}
	for i, w := range workloads {
		if s.Workload[i].Name != w.name {
			t.Errorf("workloads[%d] = %s, want %s", i, s.Workload[i].Name, w.name)
		}
	}
}

// TestMeasuredRun runs one matrix iteration at the golden seed: the output
// reproduces the committed baselines, and every end-to-end metric is
// emitted once with its unit, set-up time and peak heap above zero.
func TestMeasuredRun(t *testing.T) {
	res, err := run(io.Discard, options{workload: "matrix", seed: goldenSeed, seconds: 1, root: ".."})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != workloadByName("matrix").units {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Fatalf("got %d metrics, want %d: %v", len(res.Metrics), len(endToEnd), res.Metrics)
	}
	for _, m := range endToEnd {
		v, ok := res.Metrics[m.name]
		if !ok || v.Unit != m.unit || !(v.Value > 0) {
			t.Errorf("%s = %+v, want a positive value in %s", m.name, v, m.unit)
		}
	}
}

// TestTracedRun runs the cheapest traced workload and checks that every
// per-layer metric is emitted with its unit, every count is positive, and
// the spans are written.
func TestTracedRun(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.json")
	var out bytes.Buffer
	res, err := run(&out, options{workload: "cluster", seed: 7, seconds: 1, trace: 1, root: "..", spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run incorrect:\n%s", out.String())
	}
	if len(res.Metrics) != len(layerMetrics) {
		t.Fatalf("got %d metrics, want %d", len(res.Metrics), len(layerMetrics))
	}
	for _, m := range layerMetrics {
		v, ok := res.Metrics[m.name]
		if !ok || v.Unit != m.unit {
			t.Errorf("%s = %+v, want unit %s", m.name, v, m.unit)
		}
		if m.unit == "count" && m.name != "runtime.gc_cycles" && !(v.Value > 0) {
			t.Errorf("count %s = %v, want > 0", m.name, v.Value)
		}
	}
	if !bytes.Contains(out.Bytes(), []byte("tracing overhead")) {
		t.Error("traced run printed no tracing overhead")
	}
	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var spanList []span
	if err := json.Unmarshal(raw, &spanList); err != nil {
		t.Fatal(err)
	}
	if len(spanList) == 0 {
		t.Fatal("no spans written")
	}
	for _, s := range spanList {
		if s.Run != "cluster-seed7" || s.EndUs < s.StartUs || s.Parent >= s.ID {
			t.Fatalf("malformed span %+v", s)
		}
	}
}

// TestCheckCatchesOneByteChange flips one byte of each golden report and
// one digit of a matrix bench file; the output check must reject each.
func TestCheckCatchesOneByteChange(t *testing.T) {
	for _, name := range []string{"tables", "tournament", "cluster"} {
		wl := workloadByName(name)
		exp, err := loadExpectation("..", wl, goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		b := newBench(wl, goldenSeed)
		if err := exp.check(b, exp.body); err != nil {
			t.Fatalf("%s: golden body fails its own check: %v", name, err)
		}
		bad := append([]byte(nil), exp.body...)
		bad[len(bad)/2] ^= 1
		if exp.check(b, bad) == nil {
			t.Errorf("%s: check accepted a one-byte change", name)
		}
	}

	wl := workloadByName("matrix")
	exp, err := loadExpectation("..", wl, goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(wl, goldenSeed)
	if err := wl.setup(b); err != nil {
		t.Fatal(err)
	}
	out, failed, err := wl.call(b)
	if err != nil || failed != 0 {
		t.Fatalf("matrix call: %d failed, %v", failed, err)
	}
	if err := exp.check(b, out); err != nil {
		t.Fatalf("matrix output fails its check: %v", err)
	}
	i := bytes.Index(out, []byte(`"sim_ops": `)) + len(`"sim_ops": `)
	bad := append([]byte(nil), out...)
	bad[i] = '0' + (bad[i]-'0'+1)%10
	if exp.check(b, bad) == nil {
		t.Error("matrix: check accepted a changed metric digit")
	}
}

// TestHeapPeakHookFires checks that the GC-cycle hook itself records a
// live heap, without the direct read take adds.
func TestHeapPeakHookFires(t *testing.T) {
	h := startHeapPeak()
	keep := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		keep = append(keep, make([]byte, 64<<10))
	}
	h.max.Store(0)
	deadline := time.Now().Add(5 * time.Second)
	for h.max.Load() < 4<<20 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	runtime.KeepAlive(keep)
	if h.max.Load() < 4<<20 {
		t.Fatalf("hook recorded %d bytes live, want at least the 4 MiB kept", h.max.Load())
	}
}
