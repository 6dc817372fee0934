package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestParseThresholds(t *testing.T) {
	ts, err := parseThresholds("sim_bytes_per_op+10%, arena.fallbacks-5%")
	if err != nil {
		t.Fatalf("parseThresholds: %v", err)
	}
	if len(ts) != 2 {
		t.Fatalf("got %d thresholds, want 2", len(ts))
	}
	if ts[0].Name != "sim_bytes_per_op" || !ts[0].Up || ts[0].Pct != 10 {
		t.Errorf("first threshold = %+v", ts[0])
	}
	if ts[1].Name != "arena.fallbacks" || ts[1].Up || ts[1].Pct != 5 {
		t.Errorf("second threshold = %+v", ts[1])
	}
	for _, bad := range []string{"", "noallowance", "x+10", "x+-1%", "+10%",
		"x+NaN%", "x-nan%", "x+Inf%", "x-Inf%", "x+infinity%"} {
		if _, err := parseThresholds(bad); err == nil {
			t.Errorf("parseThresholds(%q) accepted", bad)
		}
	}
}

func TestThresholdMatchAndViolate(t *testing.T) {
	up := threshold{Name: "sim_bytes_per_op", Pct: 10, Up: true}
	if !up.matches("sim_bytes_per_op") || !up.matches("gawk/arena/true/sim_bytes_per_op") {
		t.Error("threshold does not match its metric spellings")
	}
	if up.matches("other") || up.matches("gawk/arena/true/sim_bytes_per_op2") {
		t.Error("threshold matches foreign metrics")
	}
	if up.violated(100, 109) {
		t.Error("within allowance flagged")
	}
	if !up.violated(100, 111) {
		t.Error("11% increase not flagged at +10%")
	}
	if up.violated(100, 50) {
		t.Error("improvement flagged by an increase gate")
	}
	if !up.violated(0, 1) {
		t.Error("appearance over a zero baseline not flagged")
	}
	down := threshold{Name: "x", Pct: 10, Up: false}
	if !down.violated(100, 89) || down.violated(100, 91) {
		t.Error("decrease gate misfires")
	}
}

func TestCheckThresholds(t *testing.T) {
	d := diff(
		map[string]float64{"a/b/c/m": 100, "n": 5},
		map[string]float64{"a/b/c/m": 120, "n": 5},
	)
	vs := checkThresholds(d, []threshold{{Name: "m", Pct: 10, Up: true}})
	if len(vs) != 1 || !strings.Contains(vs[0], "a/b/c/m") {
		t.Errorf("violations = %v, want one naming a/b/c/m", vs)
	}
	if vs := checkThresholds(d, []threshold{{Name: "n", Pct: 0, Up: true}}); len(vs) != 0 {
		t.Errorf("identical metric violated a 0%% gate: %v", vs)
	}
	// A gate that matches nothing must fail loudly, not pass silently.
	if vs := checkThresholds(d, []threshold{{Name: "ghost", Pct: 1, Up: true}}); len(vs) != 1 {
		t.Errorf("vacuous gate produced %v, want one failure", vs)
	}
}

func TestLoadMetricsSniffsBothFormats(t *testing.T) {
	dir := t.TempDir()

	benchPath := filepath.Join(dir, "bench.json")
	bf, err := os.Create(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	err = core.WriteBench(bf, &core.BenchFile{
		Label: "t", Scale: 0.01,
		Runs: []core.BenchRun{{Model: "gawk", Allocator: "arena", Predictor: "true",
			Metrics: map[string]float64{"sim_ops": 10}}},
	})
	bf.Close()
	if err != nil {
		t.Fatal(err)
	}
	label, m, err := loadMetrics(benchPath)
	if err != nil {
		t.Fatalf("loadMetrics(bench): %v", err)
	}
	if !strings.Contains(label, "bench") || m["gawk/arena/true/sim_ops"] != 10 {
		t.Errorf("bench load: label %q metrics %v", label, m)
	}

	snapPath := filepath.Join(dir, "snap.json")
	sf, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector(obs.Options{Label: "gawk/arena"})
	col.Counter("arena.resets").Add(3)
	err = obs.WriteJSON(sf, col.Snapshot())
	sf.Close()
	if err != nil {
		t.Fatal(err)
	}
	label, m, err = loadMetrics(snapPath)
	if err != nil {
		t.Fatalf("loadMetrics(snapshot): %v", err)
	}
	if label != "gawk/arena" || m["arena.resets"] != 3 {
		t.Errorf("snapshot load: label %q metrics %v", label, m)
	}

	badPath := filepath.Join(dir, "bad.json")
	os.WriteFile(badPath, []byte(`{"clock": 1}`), 0o644)
	if _, _, err := loadMetrics(badPath); err == nil {
		t.Error("schemaless file accepted")
	}
}

func TestParseGoBenchDerivesNsPerEvent(t *testing.T) {
	out := `goos: linux
pkg: repro
BenchmarkRunSimStreaming/gawk/arena/10x-8    205   5000000 ns/op   50.0 Mevents/s   250000 events/op   141900 B/op   204 allocs/op
BenchmarkNoEvents-8                          100   1000 ns/op   16 B/op   1 allocs/op
`
	label, m, err := parseGoBench([]byte(out))
	if err != nil {
		t.Fatalf("parseGoBench: %v", err)
	}
	if label != "go-bench repro" {
		t.Errorf("label = %q", label)
	}
	const key = "BenchmarkRunSimStreaming/gawk/arena/10x/ns_per_event"
	if got := m[key]; got != 20 {
		t.Errorf("%s = %v, want 20", key, got)
	}
	if _, ok := m["BenchmarkNoEvents/ns_per_event"]; ok {
		t.Error("ns_per_event derived for a benchmark without events/op")
	}
	// The derived key must be gateable through the suffix grammar.
	vs := checkThresholds(
		diff(map[string]float64{key: 10}, m),
		[]threshold{{Name: "ns_per_event", Pct: 50, Up: true}})
	if len(vs) != 1 {
		t.Errorf("ns_per_event gate produced %v, want one violation", vs)
	}
}

func TestDiff(t *testing.T) {
	d := diff(map[string]float64{"a": 1, "b": 2}, map[string]float64{"b": 3, "c": 4})
	if len(d) != 3 {
		t.Fatalf("diff has %d entries, want 3", len(d))
	}
	// Sorted by name: a (old only), b (changed), c (new only).
	if d[0].Name != "a" || d[0].InNew || d[1].Name != "b" || d[1].Old != 2 || d[1].New != 3 || d[2].Name != "c" || d[2].InOld {
		t.Errorf("diff = %+v", d)
	}
}
