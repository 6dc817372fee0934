package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/callchain"
	"repro/internal/check"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Fuzzed clusters take at most fuzzMaxEvents records in all, spread over
// one to four tenants; every tenant predicts sizes up to fuzzShortSize
// short-lived, so the arena member and lifetime-affinity see both
// classes.
const (
	fuzzMaxEvents = 256
	fuzzShortSize = 256
)

// fuzzTenants decodes fuzz bytes into one to four legal tenant traces and
// a budget. data[0]%4 is the tenant count less one; data[1] sets the
// budget, 0 (unlimited) when it is a multiple of 4, else data[1]<<6
// bytes. Each later 4-byte record r (a shorter tail is ignored) is an
// event of tenant r[0]%n:
//
//   - r[1]%4 == 0 frees the tenant's live object r[2] picks, when one is
//     live; otherwise the record allocates r[2]<<(r[3]%8)>>2 bytes,
//     clamped to [1, 16KB], under one of two chains (r[3]>>7);
//   - the id is the tenant's most recently freed one, recycled, or its
//     next dense id when none is free (r[1]%4 == 1), up to 4081 past the
//     next id (2, with r[3] as the gap), or trace.LiveSetCap past it (3),
//     which carries every later id of the tenant past the cap.
func fuzzTenants(data []byte) ([]*trace.Trace, int64) {
	if len(data) < 2 {
		return nil, 0
	}
	n := 1 + int(data[0])%4
	var budget int64
	if data[1]%4 != 0 {
		budget = int64(data[1]) << 6
	}
	data = data[2:]
	type tenant struct {
		tr          *trace.Trace
		chains      [2]callchain.ChainID
		live, freed []trace.ObjectID
		next        trace.ObjectID
	}
	ts := make([]*tenant, n)
	for i := range ts {
		tb := callchain.NewTable()
		ts[i] = &tenant{tr: &trace.Trace{Program: fmt.Sprintf("fuzz%d", i), Input: "cluster", Table: tb}}
		for c := range ts[i].chains {
			ts[i].chains[c] = tb.InternNames("main", fmt.Sprintf("site_%d", c))
		}
	}
	for events := 0; len(data) >= 4 && events < fuzzMaxEvents; events++ {
		r := data[:4]
		data = data[4:]
		t := ts[int(r[0])%n]
		op := r[1] % 4
		if op == 0 && len(t.live) > 0 {
			i := int(r[2]) % len(t.live)
			id := t.live[i]
			t.tr.Events = append(t.tr.Events, trace.Event{Kind: trace.KindFree, Obj: id})
			t.live[i] = t.live[len(t.live)-1]
			t.live = t.live[:len(t.live)-1]
			t.freed = append(t.freed, id)
			continue
		}
		var id trace.ObjectID
		switch {
		case op <= 1 && len(t.freed) > 0:
			id = t.freed[len(t.freed)-1]
			t.freed = t.freed[:len(t.freed)-1]
		default:
			switch op {
			case 2:
				t.next += trace.ObjectID(r[3]) << 4
			case 3:
				t.next += trace.LiveSetCap
			}
			id = t.next
			t.next++
		}
		size := min(max(int64(r[2])<<(r[3]%8)>>2, 1), 16<<10)
		t.tr.Events = append(t.tr.Events, trace.Event{
			Kind:  trace.KindAlloc,
			Obj:   id,
			Size:  size,
			Chain: t.chains[r[3]>>7],
			Refs:  int64(r[3] & 3),
		})
		t.live = append(t.live, id)
	}
	trs := make([]*trace.Trace, n)
	for i, t := range ts {
		trs[i] = t.tr
	}
	return trs, budget
}

// fuzzRunTenants wraps the traces as fresh single-use tenants.
func fuzzRunTenants(trs []*trace.Trace) []Tenant {
	ts := make([]Tenant, len(trs))
	for i, tr := range trs {
		ts[i] = Tenant{
			ID:     fmt.Sprintf("t%d", i),
			Source: trace.NewSliceSource(tr),
			Oracle: check.GenPredict(fuzzShortSize),
			Events: len(tr.Events),
		}
	}
	return ts
}

// FuzzCluster decodes fuzz bytes into one to four legal tenant traces
// with dense, recycled, gapped and past-cap ids (fuzzTenants) and runs
// every routing policy under every admission mode over a mixed
// firstfit/arena/bsd pool, each tenant tracked by its own collector. Run
// must succeed; with no budget the pool must reconcile with the ledger of
// the merged stream in global ids (check.AuditState), and with one the
// admitted live payload must never pass it. The committed corpus runs
// under `go test`; explore with `go test -fuzz=FuzzCluster ./internal/cluster`.
func FuzzCluster(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		trs, budget := fuzzTenants(data)
		if trs == nil {
			return
		}
		var led *check.Ledger
		if budget == 0 {
			led = mergedLedger(t, fuzzRunTenants(trs))
		}
		for _, policy := range PolicyNames() {
			for _, mode := range []AdmissionMode{Reject, Queue, Evict} {
				pool := mkPool(t, "fuzz", "firstfit", "arena", "bsd")
				res, err := Run(Config{
					Pool:      pool,
					Policy:    mustPolicy(t, policy),
					Admission: mode,
					Budget:    budget,
					TenantCollector: func(id string) *obs.Collector {
						return obs.NewCollector(obs.Options{Label: id})
					},
				}, fuzzRunTenants(trs))
				if err != nil {
					t.Fatalf("%s/%s budget %d: %v", policy, mode, budget, err)
				}
				if budget > 0 && res.PeakLive > budget {
					t.Fatalf("%s/%s: peak live %d past budget %d", policy, mode, res.PeakLive, budget)
				}
				if led != nil {
					if err := check.AuditState(policy+"/"+mode.String(), pool, led); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	})
}

// TestRunRejectsOverflowingID: a local id whose global id local×n+shard
// would pass 2^64 fails Run with an error naming the tenant, while the
// largest id that fits (2^64-1 for the second of two tenants) replays.
func TestRunRejectsOverflowingID(t *testing.T) {
	for _, tc := range []struct {
		id      trace.ObjectID
		wantErr bool
	}{{math.MaxUint64 / 2, false}, {math.MaxUint64/2 + 1, true}} {
		b := shardTraceEvents([]int64{32}, true)
		for i := range b.Events {
			b.Events[i].Obj = tc.id
		}
		a := shardTraceEvents([]int64{16}, true)
		_, err := Run(Config{Pool: mkPool(t, "p", "firstfit"), Policy: mustPolicy(t, "round-robin")}, []Tenant{
			{ID: "a", Source: trace.NewSliceSource(a)},
			{ID: "b", Source: trace.NewSliceSource(b)},
		})
		switch {
		case tc.wantErr && (err == nil || !strings.Contains(err.Error(), `tenant "b" object id`)):
			t.Errorf("id %d: got %v, want an overflow error naming tenant b", tc.id, err)
		case !tc.wantErr && err != nil:
			t.Errorf("id %d: %v", tc.id, err)
		}
	}
}

// TestEvictSkipsRecycledEntry: an admission-order entry of a freed object
// does not evict the object that later recycles its id. Tenant a admits
// id 0, frees it, admits id 1, then id 0 again; tenant b's allocation must
// evict a's id 1, the oldest live admission, and leave the recycled id 0.
func TestEvictSkipsRecycledEntry(t *testing.T) {
	pool := mkPool(t, "p", "firstfit")
	r := &clusterRun{
		cfg:    Config{Pool: pool, Policy: mustPolicy(t, "round-robin"), Admission: Evict, Budget: 100},
		states: []*tenantState{{t: Tenant{ID: "a"}}, {t: Tenant{ID: "b"}}},
	}
	for i, s := range []struct {
		shard int
		ev    trace.Event
	}{
		{0, trace.Event{Kind: trace.KindAlloc, Obj: 0, Size: 30}},
		{0, trace.Event{Kind: trace.KindFree, Obj: 0}},
		{0, trace.Event{Kind: trace.KindAlloc, Obj: 1, Size: 30}},
		{0, trace.Event{Kind: trace.KindAlloc, Obj: 0, Size: 10}},
		{1, trace.Event{Kind: trace.KindAlloc, Obj: 0, Size: 70}},
	} {
		if err := r.step(s.shard, s.ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	a0, _ := globalID(0, 0, 2)
	a1, _ := globalID(1, 0, 2)
	if _, live := pool.Size(a1); live {
		t.Error("a's id 1, the oldest admission, was not evicted")
	}
	if size, live := pool.Size(a0); !live || size != 10 {
		t.Errorf("a's recycled id 0: live %v, size %d; want live, 10", live, size)
	}
}
