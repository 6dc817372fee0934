package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/profile"
)

// TestTournamentDeterministicAcrossWorkerCounts is the tournament's core
// acceptance property: the rendered report (and every scored cell) is
// byte-identical at any worker count. Two programs keep the -race tier
// fast while still crossing every policy with every allocator.
func TestTournamentDeterministicAcrossWorkerCounts(t *testing.T) {
	eng := newTestEngine()
	programs := []string{"cfrac", "gawk"}
	nCells := len(OraclePolicies()) * len(TournamentAllocators) * len(programs)

	var ref *TournamentResult
	for _, workers := range []int{1, 4, nCells} {
		res, err := eng.RunTournament(TournamentSpec{Programs: programs, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Cells) != nCells {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(res.Cells), nCells)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !bytes.Equal(res.Output, ref.Output) {
			t.Errorf("workers=%d: output differs from workers=1:\n%s", workers, firstDiffLine(ref.Output, res.Output))
		}
		for i := range res.Cells {
			if res.Cells[i] != ref.Cells[i] {
				t.Errorf("workers=%d: cell %d = %+v, want %+v", workers, i, res.Cells[i], ref.Cells[i])
			}
		}
	}
}

// firstDiffLine locates the first line where two renderings diverge.
func firstDiffLine(a, b []byte) string {
	al := strings.Split(string(a), "\n")
	bl := strings.Split(string(b), "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q != %q", i+1, al[i], bl[i])
		}
	}
	return "length mismatch"
}

// TestTournamentReportShape pins the structural claims the report makes:
// every policy × allocator pair appears exactly once in the ranking,
// ranks are 1..N, and a winner exists with the lowest mean fragmentation.
func TestTournamentReportShape(t *testing.T) {
	eng := newTestEngine()
	res, err := eng.RunTournament(TournamentSpec{Programs: []string{"cfrac"}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	nPairs := len(OraclePolicies()) * len(TournamentAllocators)
	if len(res.Ranks) != nPairs {
		t.Fatalf("%d ranked pairs, want %d", len(res.Ranks), nPairs)
	}
	seen := make(map[string]bool, nPairs)
	for i, r := range res.Ranks {
		if r.Rank != i+1 {
			t.Errorf("rank %d at position %d", r.Rank, i)
		}
		k := r.Policy + "/" + r.Allocator
		if seen[k] {
			t.Errorf("pair %s ranked twice", k)
		}
		seen[k] = true
		if i > 0 && r.MeanFragPct < res.Ranks[i-1].MeanFragPct {
			t.Errorf("ranking not sorted: %s frag %.4f after %.4f",
				k, r.MeanFragPct, res.Ranks[i-1].MeanFragPct)
		}
	}
	out := string(res.Output)
	for _, want := range append(PolicyNames(), TournamentAllocators...) {
		if !strings.Contains(out, want) {
			t.Errorf("report does not mention %s", want)
		}
	}
}

// TestTournamentGateRuns: the injected conformance hook runs before any
// cell, and a failing gate aborts the tournament.
func TestTournamentGateRuns(t *testing.T) {
	eng := newTestEngine()
	var calls atomic.Int64
	boom := errors.New("allocator zoo failed conformance")
	_, err := eng.RunTournament(TournamentSpec{
		Programs: []string{"cfrac"},
		Gate:     func() error { calls.Add(1); return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("gate error not propagated: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("gate ran %d times, want 1", calls.Load())
	}
}

// TestTournamentAccuracyAllocatorIndependent: predictions depend only on
// the oracle and the trace, so accuracy must agree across every
// allocator of a (program, policy) row — the report's accuracy table
// relies on this.
func TestTournamentAccuracyAllocatorIndependent(t *testing.T) {
	eng := newTestEngine()
	res, err := eng.RunTournament(TournamentSpec{Programs: []string{"espresso"}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := make(map[string]TournamentCell)
	for _, c := range res.Cells {
		ref, ok := byPolicy[c.Policy]
		if !ok {
			byPolicy[c.Policy] = c
			continue
		}
		if c.AccuracyPct != ref.AccuracyPct || c.FPBytes != ref.FPBytes || c.FPCost != ref.FPCost {
			t.Errorf("%s/%s accuracy (%.4f, %d, %d) != %s's (%.4f, %d, %d)",
				c.Policy, c.Allocator, c.AccuracyPct, c.FPBytes, c.FPCost,
				ref.Allocator, ref.AccuracyPct, ref.FPBytes, ref.FPCost)
		}
	}
	if len(byPolicy) != len(OraclePolicies()) {
		t.Fatalf("saw %d policies, want %d", len(byPolicy), len(OraclePolicies()))
	}
}

// TestOraclePoliciesBindToSiteRouters: a tournament sitearena cell routes
// per site only when its bound oracle can name the site, so every policy
// trained on one table and bound to another must bind to a
// *profile.Mapper, the one oracle RunSimOracle routes by.
func TestOraclePoliciesBindToSiteRouters(t *testing.T) {
	a := buildArtifacts(t, "cfrac")
	for _, p := range OraclePolicies() {
		o, err := p.Train(a, profile.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		bound := profile.BindOracle(o, a.TestTrace.Table)
		if _, ok := bound.(*profile.Mapper); !ok {
			t.Errorf("%s: binding is %T, want *profile.Mapper", p.Name, bound)
		}
	}
}
