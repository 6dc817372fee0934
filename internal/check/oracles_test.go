package check

import (
	"strings"
	"testing"

	"repro/internal/heapsim"
	"repro/internal/profile"
	"repro/internal/trace"
)

// TestZooPredictsTrainsEveryPolicy: the gate must produce a callable
// verdict hook for every registered policy, total over every alloc event
// in the trace, and bound to a Mapper as the tournament binds it, so a
// SiteArena under the gate routes per site.
func TestZooPredictsTrainsEveryPolicy(t *testing.T) {
	tr := GenTrace(3, GenConfig{Events: 200})
	preds, err := ZooPredicts(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"paper", "quantile", "window", "learned"} {
		if _, ok := preds[want]; !ok {
			t.Errorf("policy %s missing from gate", want)
		}
	}
	for name, p := range preds {
		if _, ok := p.(*profile.Mapper); !ok {
			t.Errorf("%s: gate oracle is %T, want *profile.Mapper", name, p)
		}
		n := 0
		for _, ev := range tr.Events {
			if ev.Kind == trace.KindAlloc {
				if p.PredictShort(ev.Chain, ev.Size) {
					n++
				}
			}
		}
		t.Logf("%s predicted %d allocs short", name, n)
	}
}

// TestCheckTraceOraclesAllAllocators is the conformance gate in tier-1
// form: every zoo policy's hints drive every built-in allocator through
// the full differential suite (lockstep diff + audits, relabel and arena
// metamorphic properties, block/scalar equivalence).
func TestCheckTraceOraclesAllAllocators(t *testing.T) {
	fs, err := Factories()
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) < 7 {
		t.Fatalf("gate covers %d allocators, want >= 7", len(fs))
	}
	for seed := uint64(31); seed < 34; seed++ {
		tr := GenTrace(seed, GenConfig{Events: 200})
		if err := CheckTraceOracles(tr, fs, Options{Stride: 16}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestRunOraclesShrinksViolation: the zoo-gated property harness must
// catch a broken allocator under oracle-driven hints, attribute the
// failing policy by name, and ddmin the repro.
func TestRunOraclesShrinksViolation(t *testing.T) {
	fs := []Factory{
		{Name: "firstfit", New: func() heapsim.Allocator { return heapsim.NewFirstFit() }},
		leakyFactory(3),
	}
	err := RunOracles(1993, 30, GenConfig{Events: 120}, fs, Options{Stride: 4}, nil)
	if err == nil {
		t.Fatal("zoo-gated run passed with a broken participant")
	}
	v, ok := err.(*Violation)
	if !ok {
		t.Fatalf("want *Violation, got %T: %v", err, err)
	}
	if v.Err == nil || !strings.Contains(v.Err.Error(), "oracle ") {
		t.Fatalf("violation not attributed to a policy: %v", v.Err)
	}
	if len(v.Trace.Events) > 20 {
		t.Errorf("repro not minimized: %d events", len(v.Trace.Events))
	}
}

// TestRunOraclesCleanSuite: the real allocator set passes the zoo gate.
func TestRunOraclesCleanSuite(t *testing.T) {
	fs, err := Factories()
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	if err := RunOracles(7, 5, GenConfig{Events: 150}, fs, Options{Stride: 16}, func(n int) { done = n }); err != nil {
		t.Fatalf("clean zoo-gated run failed: %v", err)
	}
	if done != 5 {
		t.Fatalf("progress reported %d cases, want 5", done)
	}
}

// TestFactoriesUnknownNameListsAll: the error for an unknown allocator
// must enumerate every valid name so CLI users see their options.
func TestFactoriesUnknownNameListsAll(t *testing.T) {
	_, err := Factories("slab")
	if err == nil {
		t.Fatal("unknown allocator accepted")
	}
	for _, name := range []string{"firstfit", "bestfit", "bsd", "arena", "sitearena", "custom", "segfit"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention %s", err, name)
		}
	}
	names := AllocatorNames()
	if len(names) != 7 || names[6] != "custom" {
		t.Fatalf("AllocatorNames = %v", names)
	}
}
