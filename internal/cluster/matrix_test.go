package cluster

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

func TestParseTenantSpec(t *testing.T) {
	s, err := ParseTenantSpec("cfrac")
	if err != nil || s.ID != "cfrac" || s.Model != "cfrac" || s.SeedOffset != 0 {
		t.Fatalf("cfrac: %+v, %v", s, err)
	}
	s, err = ParseTenantSpec("cfrac#3")
	if err != nil || s.ID != "cfrac#3" || s.Model != "cfrac" || s.SeedOffset != 2*dupSeedStride {
		t.Fatalf("cfrac#3: %+v, %v", s, err)
	}
	for _, bad := range []string{"", "#2", "cfrac#0", "cfrac#x", "nosuchmodel"} {
		if _, err := ParseTenantSpec(bad); err == nil {
			t.Errorf("ParseTenantSpec(%q) accepted", bad)
		}
	}
}

func TestParsePoolSpec(t *testing.T) {
	kinds, err := ParsePoolSpec("2xarena+1xfirstfit")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"arena", "arena", "firstfit"}
	if len(kinds) != len(want) {
		t.Fatalf("kinds %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds %v, want %v", kinds, want)
		}
	}
	// A bare kind is a one-member pool.
	if kinds, err = ParsePoolSpec("bsd"); err != nil || len(kinds) != 1 || kinds[0] != "bsd" {
		t.Fatalf("bsd: %v, %v", kinds, err)
	}
	// The member cap admits exactly maxPoolMembers members.
	if kinds, err = ParsePoolSpec("32xarena+32xbsd"); err != nil || len(kinds) != maxPoolMembers {
		t.Fatalf("32xarena+32xbsd: %d members, %v", len(kinds), err)
	}
	for _, bad := range []string{"", "0xarena", "4xnosuch", "nosuch",
		"65xarena", "40xarena+40xbsd", "10000000xarena", "9223372036854775807xarena"} {
		if _, err := ParsePoolSpec(bad); err == nil {
			t.Errorf("ParsePoolSpec(%q) accepted", bad)
		}
	}
}

// FuzzParsePoolSpec: any spec either fails cleanly or names between 1
// and maxPoolMembers members, each a core allocator.
func FuzzParsePoolSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		kinds, err := ParsePoolSpec(spec)
		if err != nil {
			return
		}
		if len(kinds) < 1 || len(kinds) > maxPoolMembers {
			t.Fatalf("%q expanded to %d members, want 1..%d", spec, len(kinds), maxPoolMembers)
		}
		for _, k := range kinds {
			if !slices.Contains(core.AllocatorNames, k) {
				t.Fatalf("%q yielded member kind %q, not a core allocator", spec, k)
			}
		}
	})
}

// FuzzParseTenantSpec: any spec either fails cleanly or names a model
// that exists, under the spec itself as the tenant ID.
func FuzzParseTenantSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		ts, err := ParseTenantSpec(spec)
		if err != nil {
			return
		}
		if synth.ByName(ts.Model) == nil {
			t.Fatalf("%q accepted with unknown model %q", spec, ts.Model)
		}
		if ts.ID != spec {
			t.Fatalf("%q accepted with ID %q", spec, ts.ID)
		}
	})
}

// TestMatrixWorkerSweepDeterminism: the tournament report must be
// byte-identical at every worker count — the concurrency is pure
// scheduling, never result-shaping. Run under -race this also proves the
// warm pass makes the shared predictor tables safe to read concurrently.
func TestMatrixWorkerSweepDeterminism(t *testing.T) {
	report := func(workers int) []byte {
		cfg := MatrixConfig{
			Core:     core.DefaultConfig(0.005),
			Tenants:  []string{"cfrac", "espresso", "cfrac#2"},
			Policies: PolicyNames(),
			Pools:    []string{"2xfirstfit", "1xarena+1xfirstfit"},
			Workers:  workers,
		}
		res, err := RunMatrix(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := res.WriteReport(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	want := report(1)
	if len(want) == 0 {
		t.Fatal("empty report")
	}
	for _, w := range []int{0, 4, 8} {
		if got := report(w); !bytes.Equal(got, want) {
			t.Errorf("workers=%d report diverges from workers=1:\n%s\nvs\n%s", w, got, want)
		}
	}
}

// TestMatrixStressBudgetSelfCalibrates: with no fixed budget the
// stressed replay runs at half the unconstrained peak and actually
// experiences pressure.
func TestMatrixStressBudgetSelfCalibrates(t *testing.T) {
	res, err := RunMatrix(MatrixConfig{
		Core:    core.DefaultConfig(0.005),
		Tenants: []string{"cfrac", "espresso"},
		Pools:   []string{"2xfirstfit"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Scenarios {
		if s.Budget != s.Free.PeakLive/2 {
			t.Errorf("%s/%s: budget %d, want half of peak %d", s.Policy, s.Pool, s.Budget, s.Free.PeakLive)
		}
		if s.Stressed.PeakLive > s.Budget {
			t.Errorf("%s/%s: stressed peak %d exceeds budget %d", s.Policy, s.Pool, s.Stressed.PeakLive, s.Budget)
		}
		if s.Rejects() == 0 {
			t.Errorf("%s/%s: stressed replay rejected nothing", s.Policy, s.Pool)
		}
	}
}
