package cluster

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/heapsim"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

// testScale keeps the metamorphic replays fast while leaving thousands
// of events per tenant.
const testScale = 0.01

// preds caches each model's streaming-trained Train-input predictor
// across tests, as RunMatrix's set-up does; sources and mappers are still
// fresh per replay. No test here runs in parallel, so the map needs no
// lock.
var preds = map[string]*profile.Predictor{}

// freshTenant builds a new single-use source + bound oracle for a model.
func freshTenant(t testing.TB, id, model string) Tenant {
	t.Helper()
	pred, ok := preds[model]
	if !ok {
		var err error
		if pred, err = core.DefaultConfig(testScale).TrainPredictor(synth.ByName(model), synth.Train); err != nil {
			t.Fatal(err)
		}
		preds[model] = pred
	}
	src, err := synth.ByName(model).Source(core.DefaultConfig(testScale).GenConfig(synth.Test))
	if err != nil {
		t.Fatal(err)
	}
	n, _ := src.EventCount()
	return Tenant{ID: id, Source: src, Oracle: pred.NewMapper(src.Table()), Events: n}
}

func mkPool(t testing.TB, label string, kinds ...string) *heapsim.Pool {
	t.Helper()
	members := make([]heapsim.Allocator, len(kinds))
	for i, k := range kinds {
		a, err := core.NewAllocator(k)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = a
	}
	p, err := heapsim.NewPool(label, members...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func snapJSON(t testing.TB, s *obs.Snapshot) []byte {
	t.Helper()
	if s == nil {
		return nil
	}
	var b bytes.Buffer
	if err := obs.WriteJSON(&b, s); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestSingleTenantIdentity is the cluster's anchor property: a
// one-tenant cluster over a one-member pool — under every routing policy
// and admission mode, with no budget pressure — must reproduce the solo
// core.RunSimOracle replay on an identical pool byte for byte, SimResult
// and observability snapshot included.
func TestSingleTenantIdentity(t *testing.T) {
	const model = "cfrac"
	for _, kind := range []string{"firstfit", "arena"} {
		for _, policy := range PolicyNames() {
			for _, mode := range []AdmissionMode{Reject, Queue, Evict} {
				if mode != Reject && policy != "round-robin" {
					continue // modes are policy-independent with no budget; one policy covers them
				}
				name := fmt.Sprintf("%s/%s/%s", kind, policy, mode)
				t.Run(name, func(t *testing.T) {
					label := model + "/pool"
					poolName := "pool:1x" + kind

					soloTen := freshTenant(t, "t0", model)
					soloCol := obs.NewCollector(obs.Options{Label: label})
					soloPool := mkPool(t, poolName, kind)
					want, err := core.RunSimOracle(soloTen.Source, soloPool, soloTen.Oracle, soloCol)
					if err != nil {
						t.Fatal(err)
					}

					clTen := freshTenant(t, "t0", model)
					pol, err := NewPolicy(policy)
					if err != nil {
						t.Fatal(err)
					}
					res, err := Run(Config{
						Pool:      mkPool(t, poolName, kind),
						Policy:    pol,
						Admission: mode,
						TenantCollector: func(id string) *obs.Collector {
							return obs.NewCollector(obs.Options{Label: label})
						},
					}, []Tenant{clTen})
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Tenants) != 1 {
						t.Fatalf("%d tenant results", len(res.Tenants))
					}
					got := res.Tenants[0].Sim

					wantCopy, gotCopy := want, got
					wantCopy.Obs, gotCopy.Obs = nil, nil
					if wantCopy != gotCopy {
						t.Errorf("SimResult diverges:\nsolo:    %+v\ncluster: %+v", wantCopy, gotCopy)
					}
					wj, gj := snapJSON(t, want.Obs), snapJSON(t, got.Obs)
					if !bytes.Equal(wj, gj) {
						t.Errorf("snapshots diverge (%d vs %d bytes)", len(wj), len(gj))
					}
					tr := res.Tenants[0]
					if tr.Rejected != 0 || tr.Queued != 0 || tr.Evicted != 0 || tr.QueueExpired != 0 {
						t.Errorf("admission outcomes nonzero without budget: %+v", tr)
					}
				})
			}
		}
	}
}

// stripObs returns a TenantResult copy with the snapshot pointer cleared
// so the rest compares with ==.
func stripObs(tr TenantResult) TenantResult {
	tr.Sim.Obs = nil
	return tr
}

// runTrio runs cfrac+espresso+gawk through a 2-member pool under budget
// pressure, with tenants supplied in the given order.
func runTrio(t *testing.T, order []string, budget int64) *Result {
	t.Helper()
	models := map[string]string{"ten-a": "cfrac", "ten-b": "espresso", "ten-c": "gawk"}
	tenants := make([]Tenant, 0, len(order))
	for _, id := range order {
		tenants = append(tenants, freshTenant(t, id, models[id]))
	}
	pol, err := NewPolicy("least-frag")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Pool:      mkPool(t, "pool:2xfirstfit", "firstfit", "firstfit"),
		Policy:    pol,
		Admission: Reject,
		Budget:    budget,
		TenantCollector: func(id string) *obs.Collector {
			return obs.NewCollector(obs.Options{Label: id})
		},
		Collector: obs.NewCollector(obs.Options{Label: "cluster"}),
	}, tenants)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTenantPermutationInvariance: per-tenant results and every
// cluster-wide aggregate must not depend on the order tenants are listed
// — the keyed interleave and id-independent allocators guarantee it.
func TestTenantPermutationInvariance(t *testing.T) {
	// Calibrate a budget that actually rejects work.
	unlimited := runTrio(t, []string{"ten-a", "ten-b", "ten-c"}, 0)
	budget := unlimited.PeakLive / 2
	if budget == 0 {
		t.Fatal("calibration run saw no live bytes")
	}

	want := runTrio(t, []string{"ten-a", "ten-b", "ten-c"}, budget)
	var wantRejects int64
	for _, tr := range want.Tenants {
		wantRejects += tr.Rejected
	}
	if wantRejects == 0 {
		t.Fatalf("budget %d rejected nothing; the invariance run is vacuous", budget)
	}

	for _, order := range [][]string{
		{"ten-b", "ten-c", "ten-a"},
		{"ten-c", "ten-b", "ten-a"},
	} {
		got := runTrio(t, order, budget)
		if got.Fairness != want.Fairness || got.FragPeakPct != want.FragPeakPct ||
			got.PeakLive != want.PeakLive || got.Clock != want.Clock {
			t.Errorf("order %v: aggregates diverge: %+v vs %+v", order, got, want)
		}
		if len(got.Tenants) != len(want.Tenants) {
			t.Fatalf("order %v: %d tenants", order, len(got.Tenants))
		}
		for i := range want.Tenants {
			if stripObs(got.Tenants[i]) != stripObs(want.Tenants[i]) {
				t.Errorf("order %v: tenant %s diverges:\n%+v\nvs\n%+v",
					order, want.Tenants[i].ID, stripObs(got.Tenants[i]), stripObs(want.Tenants[i]))
			}
			if !bytes.Equal(snapJSON(t, got.Tenants[i].Sim.Obs), snapJSON(t, want.Tenants[i].Sim.Obs)) {
				t.Errorf("order %v: tenant %s snapshot diverges", order, want.Tenants[i].ID)
			}
		}
	}
}

// TestRejectsMonotoneInPoolSize: growing the pool (members and budget
// together, per-member budget fixed) must not increase admission
// rejects. This is an empirical property pinned over fixed seeds —
// admission feedback effects could in principle break strict
// monotonicity, so the models and scale here are part of the contract.
func TestRejectsMonotoneInPoolSize(t *testing.T) {
	run := func(members int, budget int64) int64 {
		kinds := make([]string, members)
		for i := range kinds {
			kinds[i] = "arena"
		}
		pol, err := NewPolicy("round-robin")
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Pool:      mkPool(t, fmt.Sprintf("pool:%dxarena", members), kinds...),
			Policy:    pol,
			Admission: Reject,
			Budget:    budget,
		}, []Tenant{freshTenant(t, "ten-a", "cfrac"), freshTenant(t, "ten-b", "espresso")})
		if err != nil {
			t.Fatal(err)
		}
		var rejects int64
		for _, tr := range res.Tenants {
			rejects += tr.Rejected
		}
		return rejects
	}
	// Calibrate per-member budget at half the single-member peak.
	calib, err := Run(Config{
		Pool:      mkPool(t, "pool:1xarena", "arena"),
		Policy:    mustPolicy(t, "round-robin"),
		Admission: Reject,
	}, []Tenant{freshTenant(t, "ten-a", "cfrac"), freshTenant(t, "ten-b", "espresso")})
	if err != nil {
		t.Fatal(err)
	}
	perMember := calib.PeakLive / 2
	if perMember == 0 {
		t.Fatal("calibration saw no live bytes")
	}
	prev := int64(-1)
	for _, m := range []int{1, 2, 4} {
		r := run(m, perMember*int64(m))
		if prev >= 0 && r > prev {
			t.Fatalf("%d members: rejects %d > previous %d", m, r, prev)
		}
		if m == 1 && r == 0 {
			t.Fatal("smallest pool rejected nothing; property is vacuous")
		}
		prev = r
	}
	if prev != 0 {
		t.Logf("largest pool still rejects %d (fine; monotonicity is the property)", prev)
	}
}

func mustPolicy(t testing.TB, name string) RoutingPolicy {
	t.Helper()
	p, err := NewPolicy(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestClusterLedgerReconciliation replays two tenants against a mixed
// pool with no budget (everything admitted) and reconciles the final
// pool state against a ledger built from the identically-interleaved
// event stream in the same global ids: the conformance auditor must
// accept the pool (spans disjoint across member windows, live set equal
// to the ledger's, op conservation).
func TestClusterLedgerReconciliation(t *testing.T) {
	cfg := core.DefaultConfig(testScale)
	mats := make([]*trace.Trace, 2)
	ids := []string{"ten-a", "ten-b"}
	for i, model := range []string{"cfrac", "espresso"} {
		m := synth.ByName(model)
		tr, err := m.Generate(cfg.GenConfig(synth.Test))
		if err != nil {
			t.Fatal(err)
		}
		mats[i] = tr
	}

	// Cluster replay over slice sources of the same traces.
	tenants := make([]Tenant, 2)
	for i, tr := range mats {
		n := len(tr.Events)
		tenants[i] = Tenant{ID: ids[i], Source: trace.NewSliceSource(tr), Events: n}
	}
	pool := mkPool(t, "pool:3xmixed", "firstfit", "arena", "bsd")
	res, err := Run(Config{
		Pool:   pool,
		Policy: mustPolicy(t, "round-robin"),
	}, tenants)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenants[0].Sim.TotalAllocs == 0 {
		t.Fatal("no admitted work")
	}

	// Independent ledger over the same merged stream, in global ids.
	led := mergedLedger(t, []Tenant{
		{ID: ids[0], Source: trace.NewSliceSource(mats[0])},
		{ID: ids[1], Source: trace.NewSliceSource(mats[1])},
	})
	if err := check.AuditState("cluster-pool", pool, led); err != nil {
		t.Fatalf("reconciliation failed: %v", err)
	}
}

// mergedLedger drains the tenants' sources, merged as Run merges them
// and in global ids, into a fresh ledger: the live set of a pool that
// admitted everything.
func mergedLedger(t *testing.T, tenants []Tenant) *check.Ledger {
	t.Helper()
	shards := make([]trace.Source, len(tenants))
	keys := make([]string, len(tenants))
	for i, tn := range tenants {
		shards[i], keys[i] = tn.Source, tn.ID
	}
	it, err := trace.NewKeyedInterleaver(shards, keys)
	if err != nil {
		t.Fatal(err)
	}
	led := check.NewLedger(32)
	for {
		shard, ev, err := it.Next()
		if err == io.EOF {
			return led
		}
		if err != nil {
			t.Fatal(err)
		}
		ev.Obj, _ = globalID(ev.Obj, shard, len(tenants))
		if err := led.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdmissionSemantics drives hand-built tenants through a tiny budget
// and pins the queue/evict/reject bookkeeping.
func TestAdmissionSemantics(t *testing.T) {
	mk := func() []Tenant {
		// Tenant a: allocs 60+60 then frees both; tenant b: alloc 60.
		ta := shardTraceEvents([]int64{60, 60}, true)
		tb := shardTraceEvents([]int64{60}, false)
		return []Tenant{
			{ID: "a", Source: trace.NewSliceSource(ta), Events: len(ta.Events)},
			{ID: "b", Source: trace.NewSliceSource(tb), Events: len(tb.Events)},
		}
	}
	const budget = 100

	t.Run("reject", func(t *testing.T) {
		res, err := Run(Config{
			Pool: mkPool(t, "p", "firstfit"), Policy: mustPolicy(t, "round-robin"),
			Admission: Reject, Budget: budget,
		}, mk())
		if err != nil {
			t.Fatal(err)
		}
		var rejected int64
		for _, tr := range res.Tenants {
			rejected += tr.Rejected
		}
		if rejected == 0 {
			t.Fatalf("expected rejects under budget %d: %+v", budget, res.Tenants)
		}
		if res.PeakLive > budget {
			t.Fatalf("PeakLive %d exceeds budget", res.PeakLive)
		}
	})

	t.Run("queue", func(t *testing.T) {
		res, err := Run(Config{
			Pool: mkPool(t, "p", "firstfit"), Policy: mustPolicy(t, "round-robin"),
			Admission: Queue, Budget: budget,
		}, mk())
		if err != nil {
			t.Fatal(err)
		}
		var queued, expired int64
		for _, tr := range res.Tenants {
			queued += tr.Queued
			expired += tr.QueueExpired
			if tr.Rejected != 0 {
				t.Errorf("queue mode rejected: %+v", tr)
			}
		}
		if queued == 0 {
			t.Fatalf("expected queued work under budget %d", budget)
		}
		if res.PeakLive > budget {
			t.Fatalf("PeakLive %d exceeds budget", res.PeakLive)
		}
		_ = expired
	})

	t.Run("evict", func(t *testing.T) {
		res, err := Run(Config{
			Pool: mkPool(t, "p", "firstfit"), Policy: mustPolicy(t, "round-robin"),
			Admission: Evict, Budget: budget,
		}, mk())
		if err != nil {
			t.Fatal(err)
		}
		var evicted, admitted int64
		for _, tr := range res.Tenants {
			evicted += tr.Evicted
			admitted += tr.Sim.TotalAllocs
		}
		if evicted == 0 {
			t.Fatalf("expected evictions under budget %d: %+v", budget, res.Tenants)
		}
		if admitted != 3 {
			t.Errorf("evict mode should admit all 3 allocs, got %d", admitted)
		}
		if res.PeakLive > budget {
			t.Fatalf("PeakLive %d exceeds budget", res.PeakLive)
		}
	})
}

// shardTraceEvents builds a minimal legal trace: n allocs of the given
// sizes, each followed (withFrees) by frees in allocation order.
func shardTraceEvents(sizes []int64, withFrees bool) *trace.Trace {
	tr := check.GenTrace(1, check.GenConfig{Events: 2}) // steal a table shape
	tr.Events = nil
	chain := tr.Table.InternNames("main", "site")
	for i, sz := range sizes {
		tr.Events = append(tr.Events, trace.Event{
			Kind: trace.KindAlloc, Obj: trace.ObjectID(i), Size: sz, Chain: chain,
		})
	}
	if withFrees {
		for i := range sizes {
			tr.Events = append(tr.Events, trace.Event{Kind: trace.KindFree, Obj: trace.ObjectID(i)})
		}
	}
	return tr
}

// TestPolicySpread sanity-checks that the policies actually differ on a
// multi-member pool: round-robin and lifetime-affinity place on more
// than one member, and lifetime-affinity separates predicted classes.
func TestPolicySpread(t *testing.T) {
	pol := mustPolicy(t, "lifetime-affinity")
	p := mkPool(t, "p", "firstfit", "firstfit", "firstfit", "firstfit")
	short1 := pol.Route(p, "t", 16, true)
	short2 := pol.Route(p, "t", 16, true)
	long1 := pol.Route(p, "t", 16, false)
	long2 := pol.Route(p, "t", 16, false)
	if short1 >= 2 || short2 >= 2 {
		t.Errorf("short routes %d,%d escaped the short half", short1, short2)
	}
	if long1 < 2 || long2 < 2 {
		t.Errorf("long routes %d,%d escaped the long half", long1, long2)
	}
	rr := mustPolicy(t, "round-robin")
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		seen[rr.Route(p, "t", 8, false)] = true
	}
	if len(seen) != 4 {
		t.Errorf("round-robin hit %d members of 4", len(seen))
	}
}
