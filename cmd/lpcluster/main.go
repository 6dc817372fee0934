// Command lpcluster runs the multi-tenant shared-heap cluster
// tournament: every routing policy crossed with every pool shape over a
// fixed tenant population, each cell replayed twice — unconstrained (the
// fragmentation and fairness baseline) and stressed at half its own peak
// (or a fixed -budget) under the chosen admission mode — then ranked.
//
// Usage:
//
//	lpcluster [-scale 0.02] [-seed 1993]
//	          [-tenants cfrac,espresso,gawk] [-policies round-robin,...]
//	          [-pools 4xarena,4xfirstfit,2xbsd] [-admission reject]
//	          [-budget 0] [-workers N]
//
// Tenants are synth model names; "cfrac#2" adds a second cfrac instance
// whose test input is generated at a deterministic seed offset. Pool
// shapes are "NxKIND" with "+" for mixed pools ("2xarena+2xfirstfit").
//
// The run is conformance-gated: before any scenario is scored, every
// requested pool shape must pass internal/check's ledger-reconciled
// audit over generated traces. The printed report is byte-identical at
// any -workers count.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/check"
	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/heapsim"
	"repro/internal/synth"
	"repro/internal/trace"
)

const name = "lpcluster"

func main() {
	scale := flag.Float64("scale", 0.02, "trace scale relative to the paper's runs")
	seed := flag.Uint64("seed", 1993, "base RNG seed")
	tenants := flag.String("tenants", "cfrac,espresso,gawk",
		fmt.Sprintf("comma-separated tenant models, optional #k duplicates (valid models: %s)",
			strings.Join(modelNames(), ",")))
	policies := flag.String("policies", strings.Join(cluster.PolicyNames(), ","),
		"comma-separated routing policies to rank")
	pools := flag.String("pools", "4xarena,4xfirstfit,2xbsd",
		"comma-separated pool shapes (NxKIND, + for mixed)")
	admission := flag.String("admission", "reject",
		fmt.Sprintf("admission mode for the stressed replay (%s)",
			strings.Join(cluster.AdmissionModes(), ",")))
	budget := flag.Int64("budget", 0, "stressed-replay live-byte budget, 0 or more (0: half of each scenario's unconstrained peak)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "max concurrent scenarios")
	cliutil.Parse(name,
		"rank routing policies x pool shapes for a multi-tenant shared heap",
		"lpcluster -scale 0.02 -seed 1993",
		"lpcluster -tenants cfrac,cfrac#2,gawk -pools 2xarena+2xfirstfit -admission evict",
		"lpcluster -pools 8xfirstfit -admission queue -workers 4")

	mode, err := cluster.ParseAdmission(*admission)
	if err != nil {
		cliutil.UsageError(name, "%v", err)
	}
	if *workers < 1 {
		cliutil.UsageError(name, "-workers must be at least 1 (got %d)", *workers)
	}
	if *budget < 0 {
		cliutil.UsageError(name, "-budget %d: want 0 or more", *budget)
	}
	cfg := cluster.MatrixConfig{
		Core:      core.DefaultConfig(*scale),
		Tenants:   splitList(*tenants),
		Policies:  splitList(*policies),
		Pools:     splitList(*pools),
		Admission: mode,
		Budget:    *budget,
		Workers:   *workers,
	}
	cfg.Core.SeedBase = *seed
	for _, s := range cfg.Tenants {
		if _, err := cluster.ParseTenantSpec(s); err != nil {
			cliutil.UsageError(name, "%v", err)
		}
	}
	for _, s := range cfg.Policies {
		if _, err := cluster.NewPolicy(s); err != nil {
			cliutil.UsageError(name, "%v", err)
		}
	}
	for _, s := range cfg.Pools {
		if _, err := cluster.ParsePoolSpec(s); err != nil {
			cliutil.UsageError(name, "%v", err)
		}
	}

	if err := conformanceGate(*seed, cfg.Pools); err != nil {
		cliutil.Fatal(name, fmt.Errorf("conformance gate: %w", err))
	}
	fmt.Fprintf(os.Stderr, "%s: conformance gate passed (%d pool shapes audited)\n", name, len(cfg.Pools))

	res, err := cluster.RunMatrix(cfg)
	if err != nil {
		cliutil.Fatal(name, err)
	}
	if _, err := fmt.Printf("lifetime-prediction cluster tournament; scale=%g seed=%d\n\n", *scale, *seed); err != nil {
		cliutil.Fatal(name, err)
	}
	if err := res.WriteReport(os.Stdout); err != nil {
		cliutil.Fatal(name, err)
	}
}

// conformanceGate audits every requested pool shape with the
// ledger-reconciled differential suite over generated traces: a pool
// composition that cannot keep the single-allocator invariants under
// round-robin placement never gets scored.
func conformanceGate(seed uint64, poolSpecs []string) error {
	for _, spec := range poolSpecs {
		kinds, err := cluster.ParsePoolSpec(spec)
		if err != nil {
			return err
		}
		for s := seed; s < seed+2; s++ {
			members := make([]heapsim.Allocator, len(kinds))
			for i, k := range kinds {
				members[i] = core.MustNewAllocator(k)
			}
			p, err := heapsim.NewPool("gate:"+spec, members...)
			if err != nil {
				return err
			}
			tr := check.GenTrace(s, check.GenConfig{})
			err = check.AuditPool(trace.NewSliceSource(tr), spec, p, check.Options{
				Stride:  32,
				Predict: check.GenPredict(1 << 12),
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// splitList splits a comma-separated flag, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// modelNames lists the synth models for -help.
func modelNames() []string {
	models := synth.All()
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = m.Name
	}
	return out
}
