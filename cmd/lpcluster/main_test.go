// Golden-file and CLI-contract tests for lpcluster. The golden pins the
// exact tournament report bytes at scale 0.02, seed 1993 — byte-identical
// at any -workers count. Regenerate after an intentional output change:
//
//	go test ./cmd/lpcluster -run TestGolden -update
//
// and review the diff like any other code change.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden file from the current tournament output")

const (
	goldenScale = 0.02
	goldenSeed  = 1993
)

// render reproduces lpcluster stdout at the default flag values: the
// header line followed by the ranked report.
func render(t *testing.T, workers int) []byte {
	t.Helper()
	cfg := cluster.MatrixConfig{
		Core:      core.DefaultConfig(goldenScale),
		Tenants:   []string{"cfrac", "espresso", "gawk"},
		Policies:  cluster.PolicyNames(),
		Pools:     []string{"4xarena", "4xfirstfit", "2xbsd"},
		Admission: cluster.Reject,
		Workers:   workers,
	}
	cfg.Core.SeedBase = goldenSeed
	res, err := cluster.RunMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "lifetime-prediction cluster tournament; scale=%g seed=%d\n\n", goldenScale, goldenSeed)
	if err := res.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(want, got) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		w, g := "", ""
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Fatalf("%s: first difference at line %d:\n golden: %q\n    got: %q\n(rerun with -update if the change is intentional)",
				filepath.Base(path), i+1, w, g)
		}
	}
	t.Fatalf("%s: outputs differ in length only: golden %d bytes, got %d", filepath.Base(path), len(want), len(got))
}

func TestGoldenClusterReport(t *testing.T) {
	if testing.Short() {
		t.Skip("golden run is seconds-long; skipped in -short")
	}
	got := render(t, 4)
	checkGolden(t, filepath.Join("testdata", "golden-cluster-scale0.02-seed1993.txt"), got)
}

// TestGoldenWorkerInvariance: the pinned report renders byte-identically
// serially and at a wide fan-out — the user-visible face of the matrix
// runner's determinism guarantee.
func TestGoldenWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("golden run is seconds-long; skipped in -short")
	}
	if !bytes.Equal(render(t, 1), render(t, 8)) {
		t.Fatal("workers=1 and workers=8 rendered different bytes")
	}
}

// --- CLI contract (exec-based) ---

var (
	binOnce sync.Once
	binPath string
	binErr  error
)

func lpclusterBin(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		dir, err := os.MkdirTemp("", "lpcluster-bin")
		if err != nil {
			binErr = err
			return
		}
		binPath = filepath.Join(dir, "lpcluster")
		if out, err := exec.Command("go", "build", "-o", binPath, "repro/cmd/lpcluster").CombinedOutput(); err != nil {
			binErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return binPath
}

func runLpcluster(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(lpclusterBin(t), args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("lpcluster %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		msg  string
	}{
		{"bad admission", []string{"-admission", "lottery"}, `unknown admission mode "lottery"`},
		{"bad tenant model", []string{"-tenants", "netscape"}, `unknown tenant model "netscape"`},
		{"bad tenant instance", []string{"-tenants", "cfrac#0"}, "bad tenant instance"},
		{"bad policy", []string{"-policies", "random"}, `unknown routing policy "random"`},
		{"bad pool kind", []string{"-pools", "4xslab"}, `pool spec "4xslab"`},
		{"zero pool members", []string{"-pools", "0xarena"}, "bad member count"},
		{"pool past member cap", []string{"-pools", "65xarena"}, `"65xarena" takes the pool past 64 members`},
		{"pool parts past member cap", []string{"-pools", "40xarena+40xbsd"}, `"40xbsd" takes the pool past 64 members`},
		{"zero workers", []string{"-workers", "0"}, "-workers must be at least 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runLpcluster(t, append([]string{"-scale", "0.005"}, tc.args...)...)
			if code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stderr, tc.msg) {
				t.Errorf("stderr missing %q:\n%s", tc.msg, stderr)
			}
			if !strings.Contains(stderr, "run lpcluster -help for usage") {
				t.Errorf("stderr missing usage pointer:\n%s", stderr)
			}
			if stdout != "" {
				t.Errorf("usage error wrote to stdout: %q", stdout)
			}
		})
	}
}

// TestRunGateAndReport execs the real binary on a small configuration:
// the conformance gate announces itself on stderr, the ranked report
// lands on stdout, and every requested policy and pool appears in it.
func TestRunGateAndReport(t *testing.T) {
	if testing.Short() {
		t.Skip("exec run is seconds-long; skipped in -short")
	}
	stdout, stderr, code := runLpcluster(t,
		"-scale", "0.005", "-tenants", "cfrac,espresso", "-pools", "2xfirstfit,1xarena+1xbsd")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "conformance gate passed") {
		t.Errorf("stderr missing gate confirmation:\n%s", stderr)
	}
	if !strings.Contains(stdout, "lifetime-prediction cluster tournament") ||
		!strings.Contains(stdout, "Scenario leaderboard") ||
		!strings.Contains(stdout, "Per-tenant breakdown") {
		t.Errorf("stdout missing report sections:\n%s", stdout)
	}
	for _, p := range cluster.PolicyNames() {
		if !strings.Contains(stdout, p) {
			t.Errorf("report missing policy %s", p)
		}
	}
	for _, pool := range []string{"2xfirstfit", "1xarena+1xbsd"} {
		if !strings.Contains(stdout, pool) {
			t.Errorf("report missing pool %s", pool)
		}
	}
	for _, ten := range []string{"cfrac", "espresso"} {
		if !strings.Contains(stdout, ten) {
			t.Errorf("report missing tenant %s", ten)
		}
	}
}

// TestBinaryWorkerSweep runs the built binary serially and at a wide
// fan-out and compares stdout byte for byte — the exec-level determinism
// check CI repeats at golden scale.
func TestBinaryWorkerSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("exec runs are seconds-long; skipped in -short")
	}
	args := []string{"-scale", "0.005", "-tenants", "cfrac,gawk", "-pools", "2xarena,2xfirstfit"}
	out1, _, code := runLpcluster(t, append(args, "-workers", "1")...)
	if code != 0 {
		t.Fatalf("workers=1 exit code %d", code)
	}
	out8, _, code := runLpcluster(t, append(args, "-workers", "8")...)
	if code != 0 {
		t.Fatalf("workers=8 exit code %d", code)
	}
	if out1 != out8 {
		t.Fatal("stdout differs between -workers 1 and -workers 8")
	}
}
