// CLI-contract tests for lpbench: bad flags exit 2 with a usage pointer
// on stderr and nothing on stdout.
package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestUsageErrors(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "lpbench")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/lpbench").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cases := []struct {
		name string
		args []string
		msg  string
	}{
		{"zero workers", []string{"-workers", "0"}, "-workers must be at least 1"},
		{"bad matrix", []string{"-matrix", "gawk/slab"}, `unknown allocator "slab"`},
		{"repeated model", []string{"-matrix", "gawk,gawk"}, `repeats model "gawk"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, append([]string{"-scale", "0.005"}, tc.args...)...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("lpbench %v: %v, want exit 2 (stderr: %s)", tc.args, err, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.msg) {
				t.Errorf("stderr missing %q:\n%s", tc.msg, stderr.String())
			}
			if !strings.Contains(stderr.String(), "run lpbench -help for usage") {
				t.Errorf("stderr missing usage pointer:\n%s", stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("usage error wrote to stdout: %q", stdout.String())
			}
		})
	}
}
