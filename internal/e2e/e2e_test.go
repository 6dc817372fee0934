// Package e2e exercises the shipped binaries end to end: the full
// lpgen → lpprof → lpsim → lpstats pipeline, the lpsim|lpstats stdin
// pipe, lpdiff's exit-code contract, and lpbench determinism — the way
// a user (or CI) drives them, via exec, asserting on exit codes and key
// output lines rather than internal APIs.
package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// binDir builds each needed command once per test binary.
var (
	binOnce sync.Once
	binPath string
	binErr  error
)

var commands = []string{"lpgen", "lpprof", "lpsim", "lpstats", "lpdiff", "lpbench", "lpcheck", "lpcluster"}

func bins(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		dir, err := os.MkdirTemp("", "lp-e2e-bin")
		if err != nil {
			binErr = err
			return
		}
		for _, cmd := range commands {
			out, err := exec.Command("go", "build", "-o", filepath.Join(dir, cmd), "repro/cmd/"+cmd).CombinedOutput()
			if err != nil {
				binErr = fmt.Errorf("go build %s: %v\n%s", cmd, err, out)
				return
			}
		}
		binPath = dir
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return binPath
}

// run executes a built binary and returns stdout, stderr, and the exit
// code (failing the test on anything but a clean exit-status error).
func run(t *testing.T, bin string, name string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, name), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v", name, args, err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

func TestPipeline(t *testing.T) {
	bin := bins(t)
	dir := t.TempDir()
	train := filepath.Join(dir, "train.trc")
	test := filepath.Join(dir, "test.trc")
	sites := filepath.Join(dir, "sites.json")
	metrics := filepath.Join(dir, "metrics.json")
	heatCSV := filepath.Join(dir, "heatmap.csv")

	// lpgen: one training trace, one test trace.
	if _, stderr, code := run(t, bin, "lpgen",
		"-program", "gawk", "-input", "train", "-scale", "0.02", "-seed", "1", "-o", train); code != 0 {
		t.Fatalf("lpgen train exited %d: %s", code, stderr)
	}
	if _, stderr, code := run(t, bin, "lpgen",
		"-program", "gawk", "-input", "test", "-scale", "0.02", "-seed", "2", "-o", test); code != 0 {
		t.Fatalf("lpgen test exited %d: %s", code, stderr)
	}

	// lpprof: train the predictor.
	if _, stderr, code := run(t, bin, "lpprof", "-trace", train, "-o", sites); code != 0 {
		t.Fatalf("lpprof exited %d: %s", code, stderr)
	}
	var sitesDoc map[string]any
	data, err := os.ReadFile(sites)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &sitesDoc); err != nil {
		t.Fatalf("lpprof output is not JSON: %v", err)
	}

	// lpsim: replay the test trace with prediction and observability.
	stdout, stderr, code := run(t, bin, "lpsim",
		"-trace", test, "-alloc", "arena", "-sites", sites, "-obs", metrics, "-heapscan")
	if code != 0 {
		t.Fatalf("lpsim exited %d: %s", code, stderr)
	}
	for _, want := range []string{"gawk", "arena"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("lpsim stdout is missing %q:\n%s", want, stdout)
		}
	}

	// lpstats: render the snapshot, writing the heatmap CSV alongside.
	stdout, stderr, code = run(t, bin, "lpstats", "-metrics", metrics, "-heatmap-csv", heatCSV)
	if code != 0 {
		t.Fatalf("lpstats exited %d: %s", code, stderr)
	}
	for _, want := range []string{
		"gawk", "arena", "clock",
		// The accuracy/calibration report: an observed replay with a
		// predictor must render the confusion matrix and site attribution.
		"prediction accuracy", "false positive", "calibration drift",
		// The heap-topology report: a -heapscan replay must render the
		// fragmentation table and the address-space heatmap.
		"fragmentation decomposition", "address-space heatmap",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("lpstats report is missing %q", want)
		}
	}

	// The heatmap CSV has the full-width header and at least one data row.
	heatData, err := os.ReadFile(heatCSV)
	if err != nil {
		t.Fatal(err)
	}
	heatLines := strings.Split(strings.TrimSpace(string(heatData)), "\n")
	if !strings.HasPrefix(heatLines[0], "clock,extent,bin0,") {
		t.Errorf("heatmap CSV header = %q", heatLines[0])
	}
	if len(heatLines) < 2 {
		t.Error("heatmap CSV has no data rows")
	}

	// Missing flag is a usage error: exit 2.
	if _, _, code := run(t, bin, "lpstats"); code != 2 {
		t.Errorf("lpstats without -metrics exited %d, want 2", code)
	}
}

// TestStdinPipe drives the documented one-liner:
// lpsim -obs - | lpstats -metrics -
func TestStdinPipe(t *testing.T) {
	bin := bins(t)
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.trc")
	if _, stderr, code := run(t, bin, "lpgen",
		"-program", "cfrac", "-input", "test", "-scale", "0.02", "-o", trace); code != 0 {
		t.Fatalf("lpgen exited %d: %s", code, stderr)
	}

	pipe := fmt.Sprintf("%s -trace %s -alloc arena -obs - | %s -metrics -",
		filepath.Join(bin, "lpsim"), trace, filepath.Join(bin, "lpstats"))
	out, err := exec.Command("sh", "-c", pipe).Output()
	if err != nil {
		t.Fatalf("pipe failed: %v", err)
	}
	for _, want := range []string{"cfrac", "arena", "clock"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("piped lpstats report is missing %q:\n%s", want, out)
		}
	}
}

// TestGenSimPipe pipes lpgen straight into lpsim with no intermediate
// file and requires the simulation result to be byte-identical to the
// file-based run — the constant-memory streaming contract.
func TestGenSimPipe(t *testing.T) {
	bin := bins(t)
	dir := t.TempDir()
	trc := filepath.Join(dir, "t.trc")

	genArgs := "-program gawk -input test -scale 0.02 -seed 3"
	if _, stderr, code := run(t, bin, "lpgen",
		"-program", "gawk", "-input", "test", "-scale", "0.02", "-seed", "3", "-o", trc); code != 0 {
		t.Fatalf("lpgen exited %d: %s", code, stderr)
	}
	fileOut, stderr, code := run(t, bin, "lpsim", "-trace", trc, "-alloc", "arena")
	if code != 0 {
		t.Fatalf("file-based lpsim exited %d: %s", code, stderr)
	}

	pipe := fmt.Sprintf("%s %s -o - | %s -trace - -alloc arena",
		filepath.Join(bin, "lpgen"), genArgs, filepath.Join(bin, "lpsim"))
	pipeOut, err := exec.Command("sh", "-c", pipe).Output()
	if err != nil {
		t.Fatalf("lpgen | lpsim pipe failed: %v", err)
	}
	if fileOut != string(pipeOut) {
		t.Errorf("piped lpsim output differs from file-based run:\nfile:\n%s\npipe:\n%s", fileOut, pipeOut)
	}
}

// TestDiffGate proves the CI contract: lpdiff exits 0 comparing a bench
// file against itself and 1 when a gated metric regresses.
func TestDiffGate(t *testing.T) {
	bin := bins(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")

	if _, stderr, code := run(t, bin, "lpbench",
		"-matrix", "gawk/arena/true", "-label", "base", "-scale", "0.01", "-o", base); code != 0 {
		t.Fatalf("lpbench exited %d: %s", code, stderr)
	}

	stdout, _, code := run(t, bin, "lpdiff", "-threshold", "sim_bytes_per_op+10%", base, base)
	if code != 0 {
		t.Fatalf("lpdiff on identical files exited %d:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "threshold(s) hold") {
		t.Errorf("lpdiff pass output missing confirmation:\n%s", stdout)
	}

	// Inject a 25% regression into sim_bytes_per_op and re-gate.
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	runs := doc["runs"].([]any)
	metrics := runs[0].(map[string]any)["metrics"].(map[string]any)
	metrics["sim_bytes_per_op"] = metrics["sim_bytes_per_op"].(float64) * 1.25
	bad, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	regressed := filepath.Join(dir, "regressed.json")
	if err := os.WriteFile(regressed, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	stdout, _, code = run(t, bin, "lpdiff", "-threshold", "sim_bytes_per_op+10%", base, regressed)
	if code != 1 {
		t.Fatalf("lpdiff on a 25%% regression exited %d, want 1:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "FAIL") || !strings.Contains(stdout, "sim_bytes_per_op") {
		t.Errorf("lpdiff failure output missing FAIL line:\n%s", stdout)
	}

	// A threshold that matches no metric must also gate (exit 1).
	if _, _, code := run(t, bin, "lpdiff", "-threshold", "no_such_metric+5%", base, base); code != 1 {
		t.Errorf("vacuous gate exited %d, want 1", code)
	}
}

// TestProfileFlags replays a trace under -cpuprofile/-memprofile and
// requires both pprof files to land non-empty, with the simulation
// output unchanged — profiling must observe the run, not perturb it.
func TestProfileFlags(t *testing.T) {
	bin := bins(t)
	dir := t.TempDir()
	trc := filepath.Join(dir, "t.trc")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")

	if _, stderr, code := run(t, bin, "lpgen",
		"-program", "gawk", "-input", "test", "-scale", "0.02", "-seed", "4", "-o", trc); code != 0 {
		t.Fatalf("lpgen exited %d: %s", code, stderr)
	}
	plain, stderr, code := run(t, bin, "lpsim", "-trace", trc, "-alloc", "arena")
	if code != 0 {
		t.Fatalf("lpsim exited %d: %s", code, stderr)
	}
	profiled, stderr, code := run(t, bin, "lpsim",
		"-trace", trc, "-alloc", "arena", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("profiled lpsim exited %d: %s", code, stderr)
	}
	if profiled != plain {
		t.Errorf("profiling changed lpsim output:\nplain:\n%s\nprofiled:\n%s", plain, profiled)
	}
	for _, p := range []string{cpu, mem} {
		// pprof files are gzip-compressed protobufs; the two magic bytes
		// are enough to prove a real profile was written, not an empty
		// or truncated file.
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("profile %s is not a gzipped pprof file (%d bytes)", p, len(data))
		}
	}

	// lpbench shares the same flags through cliutil.
	memB := filepath.Join(dir, "bench-mem.pprof")
	if _, stderr, code := run(t, bin, "lpbench",
		"-matrix", "gawk/arena/true", "-scale", "0.01", "-o", filepath.Join(dir, "b.json"),
		"-memprofile", memB); code != 0 {
		t.Fatalf("lpbench with -memprofile exited %d: %s", code, stderr)
	}
	if data, err := os.ReadFile(memB); err != nil || len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Errorf("lpbench heap profile missing or malformed (err=%v)", err)
	}
}

// TestProfileRejectsBadFlags requires lpprof to refuse each out-of-range
// profile flag as a usage error (exit 2) before it trains, so no output
// file appears, while an in-range run still exits 0.
func TestProfileRejectsBadFlags(t *testing.T) {
	bin := bins(t)
	dir := t.TempDir()
	trc := filepath.Join(dir, "train.trc")
	if _, stderr, code := run(t, bin, "lpgen",
		"-program", "gawk", "-input", "train", "-scale", "0.01", "-o", trc); code != 0 {
		t.Fatalf("lpgen exited %d: %s", code, stderr)
	}
	for _, tc := range []struct {
		flag, value string
		want        int
	}{
		{"-admit", "-1", 2},
		{"-admit", "0", 2},
		{"-admit", "1.5", 2},
		{"-admit", "NaN", 2},
		{"-threshold", "-5", 2},
		{"-threshold", "0", 2},
		{"-rounding", "-8", 2},
		{"-rounding", "0", 2},
		{"-chain-length", "-3", 2},
		{"-admit", "1", 0},
	} {
		out := filepath.Join(dir, "sites"+tc.flag+tc.value+".json")
		_, stderr, code := run(t, bin, "lpprof", "-trace", trc, tc.flag, tc.value, "-o", out)
		if code != tc.want {
			t.Errorf("lpprof %s %s exited %d, want %d: %s", tc.flag, tc.value, code, tc.want, stderr)
		}
		_, err := os.Stat(out)
		if wrote := err == nil; wrote != (tc.want == 0) {
			t.Errorf("lpprof %s %s: output file written = %v, want %v", tc.flag, tc.value, wrote, tc.want == 0)
		}
	}
}

// TestCommandsRejectBadFlags requires each count that would run nothing
// or unbounded work, and each non-finite or negative number, to be
// refused with every other argument valid: a usage error (exit 2) before
// any work, or for a bad generator scale a generation error (exit 1),
// and either way no output file and nothing on stdout. An in-range value
// of the same flag still exits 0.
func TestCommandsRejectBadFlags(t *testing.T) {
	bin := bins(t)
	dir := t.TempDir()
	trc := filepath.Join(dir, "test.trc")
	if _, stderr, code := run(t, bin, "lpgen",
		"-program", "gawk", "-input", "test", "-scale", "0.005", "-o", trc); code != 0 {
		t.Fatalf("lpgen exited %d: %s", code, stderr)
	}
	snap := filepath.Join(dir, "snap.json")
	if _, stderr, code := run(t, bin, "lpsim", "-trace", trc, "-obs", snap); code != 0 {
		t.Fatalf("lpsim exited %d: %s", code, stderr)
	}
	// valid gives each command's other arguments, writing to out when
	// the command writes a file; flags under test go in front, so
	// lpdiff's files stay last.
	valid := map[string]func(out string) []string{
		"lpgen":   func(out string) []string { return []string{"-program", "gawk", "-input", "test", "-o", out} },
		"lpsim":   func(out string) []string { return []string{"-trace", trc, "-heapscan", "-obs", out} },
		"lpcheck": func(string) []string { return []string{"-allocs", "firstfit"} },
		"lpdiff":  func(string) []string { return []string{snap, snap} },
		"lpcluster": func(string) []string {
			return []string{"-scale", "0.005", "-tenants", "cfrac", "-pools", "1xfirstfit", "-policies", "round-robin", "-workers", "1"}
		},
	}
	for i, tc := range []struct {
		cmd   string
		flags []string
		want  int
	}{
		{"lpcheck", []string{"-cases", "-1"}, 2},
		{"lpcheck", []string{"-cases", "-3"}, 2},
		{"lpcheck", []string{"-events", "0"}, 2},
		{"lpcheck", []string{"-events", "-5"}, 2},
		{"lpcheck", []string{"-cases", "2", "-events", "1"}, 0},
		{"lpcheck", []string{"-stride", "0"}, 2},
		{"lpcheck", []string{"-stride", "-4"}, 2},
		{"lpcheck", []string{"-cases", "2", "-stride", "1"}, 0},
		{"lpcluster", []string{"-budget", "-1"}, 2},
		{"lpcluster", []string{"-budget", "100000"}, 0},
		{"lpsim", []string{"-heatmap-bins", "-7"}, 2},
		{"lpsim", []string{"-heatmap-bins", "1025"}, 2},
		{"lpsim", []string{"-heatmap-bins", "100000"}, 2},
		{"lpsim", []string{"-calls-per-alloc", "NaN"}, 2},
		{"lpsim", []string{"-calls-per-alloc", "-1"}, 2},
		{"lpsim", []string{"-calls-per-alloc", "+Inf"}, 2},
		{"lpsim", []string{"-heatmap-bins", "1024", "-calls-per-alloc", "2.5"}, 0},
		{"lpdiff", []string{"-threshold", "clock+NaN%"}, 2},
		{"lpdiff", []string{"-threshold", "clock+Inf%"}, 2},
		{"lpdiff", []string{"-threshold", "clock-Inf%"}, 2},
		{"lpdiff", []string{"-threshold", "clock+10%"}, 0},
		{"lpgen", []string{"-scale", "NaN"}, 1},
		{"lpgen", []string{"-scale", "+Inf"}, 1},
		{"lpgen", []string{"-scale", "-1"}, 1},
		{"lpgen", []string{"-scale", "0.005"}, 0},
	} {
		out := filepath.Join(dir, fmt.Sprintf("out%d", i))
		args := append(append([]string(nil), tc.flags...), valid[tc.cmd](out)...)
		stdout, stderr, code := run(t, bin, tc.cmd, args...)
		if code != tc.want {
			t.Errorf("%s %v exited %d, want %d: %s", tc.cmd, tc.flags, code, tc.want, stderr)
		}
		if tc.want == 0 {
			continue
		}
		if stdout != "" {
			t.Errorf("%s %v wrote to stdout:\n%s", tc.cmd, tc.flags, stdout)
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("%s %v wrote its output file", tc.cmd, tc.flags)
		}
	}
}

// TestBenchDeterminism runs lpbench twice with identical arguments and
// requires byte-identical output — the property that makes a committed
// BENCH_seed.json a usable cross-machine baseline.
func TestBenchDeterminism(t *testing.T) {
	bin := bins(t)
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for _, out := range []string{a, b} {
		if _, stderr, code := run(t, bin, "lpbench",
			"-matrix", "gawk,cfrac/arena,bsd/true,none", "-label", "seed", "-scale", "0.01", "-o", out); code != 0 {
			t.Fatalf("lpbench exited %d: %s", code, stderr)
		}
	}
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Error("two identical lpbench invocations differ — bench output is not deterministic")
	}
}
