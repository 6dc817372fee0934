// Package cluster simulates N tenant programs contending for one shared
// pool of heaps — the multi-tenant generalization of the paper's
// one-program-one-allocator experiments. Tenant event streams merge onto
// a single virtual byte clock (trace.Interleaver keyed by tenant id, so
// results never depend on tenant order), a pluggable RoutingPolicy
// places every admitted allocation on a pool member, and an admission
// controller arbitrates a pool-wide live-byte budget by rejecting,
// queueing, or evicting. Per-tenant observability reuses core's replay
// tracker verbatim: a single-tenant cluster under any policy produces
// the exact SimResult and snapshot a solo core.RunSimOracle replay
// would, a property the metamorphic tests pin byte for byte.
package cluster

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/heapsim"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
)

// globalID maps object local of tenant shard, one of n, to its id in the
// pool, local×n + shard, and reports false when that would pass 2^64.
// Global ids are unique across tenants, gid % n recovers the shard, ids
// recycled densely by each tenant stay dense in the pool, and one tenant
// keeps its own ids (the single-tenant identity).
func globalID(local trace.ObjectID, shard, n int) (trace.ObjectID, bool) {
	if local > (math.MaxUint64-trace.ObjectID(shard))/trace.ObjectID(n) {
		return 0, false
	}
	return local*trace.ObjectID(n) + trace.ObjectID(shard), true
}

// Tenant is one workload stream entering the cluster.
type Tenant struct {
	// ID names the tenant: the interleaver's tie-break key, the metric
	// family prefix, and the report row label. IDs must be unique and
	// non-empty.
	ID string
	// Source yields the tenant's events; single-use, like any Source.
	Source trace.Source
	// Oracle supplies the per-allocation lifetime-class hint from this
	// tenant's own profile (nil: everything predicted long-lived).
	Oracle profile.Oracle
	// Events is the tenant's total event count when known (drives the
	// tracker's 25/50/75% phase marks; 0 when unknown).
	Events int
}

// AdmissionMode selects what happens when admitting an allocation would
// push the pool's admitted live payload past the budget.
type AdmissionMode uint8

const (
	// Reject drops the allocation: the object never exists, and its
	// later free is absorbed.
	Reject AdmissionMode = iota
	// Queue parks the allocation in a strict FIFO and admits from the
	// head as frees make room. Strictness is deliberate — a fitting
	// newcomer never jumps an older waiter, so queueing is fair but
	// head-of-line blocking is real and measurable. An object whose
	// free arrives while it still waits is cancelled (queue-expired).
	Queue
	// Evict force-frees the oldest admitted objects (pool-wide
	// admission order) until the newcomer fits; the victim's own free
	// later becomes a no-op. The victim is scored against its oracle
	// prediction at eviction time.
	Evict
)

// String returns the mode's flag spelling.
func (m AdmissionMode) String() string {
	switch m {
	case Reject:
		return "reject"
	case Queue:
		return "queue"
	case Evict:
		return "evict"
	}
	return fmt.Sprintf("AdmissionMode(%d)", uint8(m))
}

// AdmissionModes lists the flag spellings in declaration order.
func AdmissionModes() []string { return []string{"reject", "queue", "evict"} }

// ParseAdmission resolves a flag spelling.
func ParseAdmission(s string) (AdmissionMode, error) {
	switch s {
	case "reject":
		return Reject, nil
	case "queue":
		return Queue, nil
	case "evict":
		return Evict, nil
	}
	return 0, fmt.Errorf("cluster: unknown admission mode %q (have %v)", s, AdmissionModes())
}

// Config parameterizes one cluster run.
type Config struct {
	// Pool is the shared heap substrate; required, never reused across
	// runs.
	Pool *heapsim.Pool
	// Policy routes admitted allocations to members; required, per-run.
	Policy RoutingPolicy
	// Admission arbitrates Budget overload.
	Admission AdmissionMode
	// Budget caps the pool-wide admitted live payload bytes; 0 means
	// unlimited (no admission control).
	Budget int64
	// TenantCollector, when set, supplies one obs.Collector per tenant;
	// each tenant's replay tracker records into its own, exactly as a
	// solo replay would. Nil collectors disable that tenant's tracking.
	TenantCollector func(id string) *obs.Collector
	// Collector, when set, receives cluster-level observability: the
	// shared-clock timeline (admitted live vs pool footprint) and the
	// per-tenant admission counter families (tenant.<id>.*).
	Collector *obs.Collector
}

// TenantResult is one tenant's outcome.
type TenantResult struct {
	ID      string
	Program string
	// Sim carries the solo-replay vocabulary: TotalAllocs/TotalBytes
	// count this tenant's *admitted* work; MaxHeap, Counts, and the
	// derived percentages are pool-wide aggregates replicated to every
	// tenant (one shared heap has one footprint), so the percentage
	// fields are meaningful only in single-tenant runs. Obs is the
	// tenant's snapshot when a collector was attached.
	Sim core.SimResult
	// Admission outcomes, in objects (RejectedBytes in payload bytes).
	Rejected      int64
	RejectedBytes int64
	Queued        int64 // enqueued at least once
	QueueExpired  int64 // died waiting (free arrived before admission)
	Evicted       int64 // force-freed to make room
	// PeakLive is the tenant's peak admitted live payload — its tail
	// occupancy share of the pool.
	PeakLive int64
	// ByteLife integrates the tenant's admitted live bytes over the
	// global byte clock — the service integral fairness is judged on.
	ByteLife float64
}

// Result is one cluster run's outcome.
type Result struct {
	Policy    string
	Admission AdmissionMode
	Budget    int64
	// Tenants holds per-tenant outcomes sorted by tenant ID (input
	// order is irrelevant by construction).
	Tenants []TenantResult
	// Fairness is Jain's index over the tenants' ByteLife integrals.
	Fairness float64
	// FragPeakPct is 1 - peak admitted live payload / peak pool
	// footprint, in percent — the cluster's memory-overhead headline.
	// (An instantaneous 1-live/heap peak would saturate at ~100% during
	// startup and drain; the peak-over-peak ratio is the paper's own
	// max-heap-vs-max-live overhead notion lifted to the pool.)
	FragPeakPct float64
	// PeakLive is the pool-wide peak admitted live payload; the
	// self-calibrating stress budget derives from it.
	PeakLive int64
	// Clock is the final global byte clock: total alloc bytes offered
	// by all tenants, admitted or not.
	Clock int64
}

// tenantState is the per-tenant replay state during a run.
type tenantState struct {
	t       Tenant
	tracker *core.Tracker
	res     TenantResult
	live    int64 // admitted live payload bytes
	lastT   int64 // global clock at last live-bytes change
}

// queuedObj is one waiting allocation in Queue mode.
type queuedObj struct {
	shard     int
	ev        trace.Event // original event, id already global
	short     bool
	cancelled bool
}

// Run replays the merged tenant streams against the shared pool and
// returns per-tenant and cluster-wide outcomes. The run is strictly
// deterministic: same tenants (in any order), pool shape, policy, and
// budget produce identical results.
func Run(cfg Config, tenants []Tenant) (*Result, error) {
	if cfg.Pool == nil {
		return nil, fmt.Errorf("cluster: Config.Pool is required")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("cluster: Config.Policy is required")
	}
	if cfg.Budget < 0 {
		return nil, fmt.Errorf("cluster: negative budget %d", cfg.Budget)
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("cluster: at least one tenant required")
	}
	shards := make([]trace.Source, len(tenants))
	keys := make([]string, len(tenants))
	states := make([]*tenantState, len(tenants))
	for i, t := range tenants {
		if t.ID == "" {
			return nil, fmt.Errorf("cluster: tenant %d has an empty id", i)
		}
		if t.Source == nil {
			return nil, fmt.Errorf("cluster: tenant %q has a nil source", t.ID)
		}
		shards[i] = t.Source
		keys[i] = t.ID
		st := &tenantState{t: t}
		st.res.ID = t.ID
		if cfg.TenantCollector != nil {
			st.tracker = core.NewTracker(cfg.TenantCollector(t.ID), cfg.Pool, t.Events, t.Oracle)
		}
		states[i] = st
	}
	it, err := trace.NewKeyedInterleaver(shards, keys)
	if err != nil {
		return nil, err
	}

	r := &clusterRun{cfg: cfg, states: states}
	for i := 0; ; i++ {
		shard, ev, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := r.step(shard, ev); err != nil {
			return nil, fmt.Errorf("cluster: merged event %d: %w", i, err)
		}
	}
	return r.finish()
}

// clusterRun is the in-flight state of one Run.
type clusterRun struct {
	cfg    Config
	states []*tenantState

	clock        int64 // global byte clock: all offered alloc bytes
	admittedLive int64 // pool-wide admitted live payload
	admittedObjs int64
	peakLive     int64

	// The admitted objects are the pool's live set (Pool.Size); an
	// object's shard is its global id modulo the tenant count.
	dropped trace.LiveSet[struct{}] // rejected or evicted gids

	// Evict mode: pool-wide admission order, lazily compacted, and each
	// admitted gid's position in it. A recycled gid is admitted again at
	// a new position, so an entry is current only where fifoPos says.
	evictFIFO []trace.ObjectID
	evictHead int
	fifoPos   trace.LiveSet[int]

	// Queue mode: strict FIFO with a death-cancellation index.
	queue      []*queuedObj
	queueHead  int
	queueIndex trace.LiveSet[*queuedObj]
}

// shard returns the tenant state owning global id gid.
func (r *clusterRun) shard(gid trace.ObjectID) *tenantState {
	return r.states[gid%trace.ObjectID(len(r.states))]
}

// step processes one merged event.
func (r *clusterRun) step(shard int, ev trace.Event) error {
	st := r.states[shard]
	local := ev.Obj
	gid, ok := globalID(local, shard, len(r.states))
	if !ok {
		return fmt.Errorf("tenant %q object id %d overflows the global id", st.t.ID, local)
	}
	ev.Obj = gid
	switch ev.Kind {
	case trace.KindAlloc:
		short := false
		if st.t.Oracle != nil {
			short = st.t.Oracle.PredictShort(ev.Chain, ev.Size)
		}
		r.clock += ev.Size
		over := r.cfg.Budget > 0 && r.admittedLive+ev.Size > r.cfg.Budget
		switch {
		case r.cfg.Admission == Queue && (over || r.queueHead < len(r.queue)):
			// Strict FIFO: while anyone waits, newcomers wait too.
			q := &queuedObj{shard: shard, ev: ev, short: short}
			r.queue = append(r.queue, q)
			r.queueIndex.Put(gid, q)
			st.res.Queued++
		case over && r.cfg.Admission == Evict:
			if !r.evictFor(ev.Size) {
				// Even an empty pool cannot fit it: reject.
				r.reject(st, shard, ev)
				break
			}
			if err := r.admit(shard, ev, short); err != nil {
				return err
			}
		case over: // Reject
			r.reject(st, shard, ev)
		default:
			if err := r.admit(shard, ev, short); err != nil {
				return err
			}
		}
	case trace.KindFree:
		if q, ok := r.queueIndex.Delete(gid); ok {
			// Died waiting: cancel the queued allocation.
			q.cancelled = true
			st.res.QueueExpired++
			st.tracker.Step(ev, false)
			break
		}
		if _, ok := r.dropped.Delete(gid); ok {
			// Free of a rejected or evicted object: absorbed, but still
			// stepped so the tracker's event count stays aligned.
			st.tracker.Step(ev, false)
			break
		}
		size, ok := r.cfg.Pool.Size(gid)
		if !ok {
			return fmt.Errorf("tenant %q frees unknown object %d", st.t.ID, local)
		}
		if err := r.cfg.Pool.Free(gid); err != nil {
			return err
		}
		r.release(gid, size)
		st.tracker.Step(ev, false)
		if r.cfg.Admission == Queue {
			if err := r.drainQueue(); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("tenant %q event has bad kind %d", st.t.ID, ev.Kind)
	}
	r.observe()
	return nil
}

// admit places one allocation through the routing policy and records it.
func (r *clusterRun) admit(shard int, ev trace.Event, short bool) error {
	st := r.states[shard]
	member := r.cfg.Policy.Route(r.cfg.Pool, st.t.ID, ev.Size, short)
	if err := r.cfg.Pool.AllocOn(member, ev.Obj, ev.Size, short); err != nil {
		return err
	}
	r.advance(st)
	st.live += ev.Size
	if st.live > st.res.PeakLive {
		st.res.PeakLive = st.live
	}
	r.admittedLive += ev.Size
	r.admittedObjs++
	if r.admittedLive > r.peakLive {
		r.peakLive = r.admittedLive
	}
	if r.cfg.Admission == Evict {
		r.fifoPos.Put(ev.Obj, len(r.evictFIFO))
		r.evictFIFO = append(r.evictFIFO, ev.Obj)
	}
	st.res.Sim.TotalAllocs++
	st.res.Sim.TotalBytes += ev.Size
	st.tracker.Step(ev, short)
	return nil
}

// reject drops one allocation.
func (r *clusterRun) reject(st *tenantState, shard int, ev trace.Event) {
	r.dropped.Put(ev.Obj, struct{}{})
	st.res.Rejected++
	st.res.RejectedBytes += ev.Size
}

// release updates live accounting after an admitted object of size
// bytes leaves the pool (free or eviction).
func (r *clusterRun) release(gid trace.ObjectID, size int64) {
	r.fifoPos.Delete(gid)
	st := r.shard(gid)
	r.advance(st)
	st.live -= size
	r.admittedLive -= size
	r.admittedObjs--
}

// evictFor force-frees oldest admitted objects until size fits under the
// budget; it reports false when even an empty pool would not fit it.
func (r *clusterRun) evictFor(size int64) bool {
	if size > r.cfg.Budget {
		return false
	}
	for r.admittedLive+size > r.cfg.Budget {
		// Lazily skip entries already freed the normal way.
		for r.evictHead < len(r.evictFIFO) {
			if pos, live := r.fifoPos.Get(r.evictFIFO[r.evictHead]); live && pos == r.evictHead {
				break
			}
			r.evictHead++
		}
		if r.evictHead >= len(r.evictFIFO) {
			return false // nothing left to evict (unreachable when accounting is sound)
		}
		gid := r.evictFIFO[r.evictHead]
		r.evictHead++
		size, _ := r.cfg.Pool.Size(gid)
		if err := r.cfg.Pool.Free(gid); err != nil {
			return false
		}
		r.release(gid, size)
		st := r.shard(gid)
		st.res.Evicted++
		r.dropped.Put(gid, struct{}{})
		// Score the victim now: from its tracker's point of view the
		// object just died.
		st.tracker.Step(trace.Event{Kind: trace.KindFree, Obj: gid}, false)
	}
	return true
}

// drainQueue admits waiting allocations from the head while they fit.
func (r *clusterRun) drainQueue() error {
	for r.queueHead < len(r.queue) {
		q := r.queue[r.queueHead]
		if q.cancelled {
			r.queueHead++
			continue
		}
		if r.cfg.Budget > 0 && r.admittedLive+q.ev.Size > r.cfg.Budget {
			return nil // head still does not fit; everyone behind waits
		}
		r.queueHead++
		r.queueIndex.Delete(q.ev.Obj)
		if err := r.admit(q.shard, q.ev, q.short); err != nil {
			return err
		}
	}
	return nil
}

// advance folds a tenant's live-byte integral forward to the current
// global clock; call before any change to st.live.
func (r *clusterRun) advance(st *tenantState) {
	if r.clock > st.lastT {
		st.res.ByteLife += float64(st.live) * float64(r.clock-st.lastT)
		st.lastT = r.clock
	}
}

// observe feeds the cluster-level timeline after each merged event.
func (r *clusterRun) observe() {
	col := r.cfg.Collector
	if col == nil {
		return
	}
	col.SetClock(r.clock)
	if col.TimelineDue(r.clock) {
		col.RecordSample(obs.Sample{
			Clock:       r.clock,
			LiveBytes:   r.admittedLive,
			LiveObjects: r.admittedObjs,
			HeapBytes:   r.cfg.Pool.HeapSize(),
		})
	}
}

// finish settles integrals, fills per-tenant results, emits the
// cluster-level metric families, and assembles the Result.
func (r *clusterRun) finish() (*Result, error) {
	res := &Result{
		Policy:    r.cfg.Policy.Name(),
		Admission: r.cfg.Admission,
		Budget:    r.cfg.Budget,
		PeakLive:  r.peakLive,
		Clock:     r.clock,
	}
	if maxHeap := r.cfg.Pool.MaxHeapSize(); maxHeap > 0 {
		res.FragPeakPct = 100 * (1 - float64(r.peakLive)/float64(maxHeap))
	}
	order := make([]int, len(r.states))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return r.states[order[a]].t.ID < r.states[order[b]].t.ID
	})
	shares := make([]float64, 0, len(order))
	for _, i := range order {
		st := r.states[i]
		r.advance(st)
		st.res.Program = st.t.Source.Meta().Program
		core.FinishSim(&st.res.Sim, r.cfg.Pool)
		st.res.Sim.Obs = st.tracker.Finish(st.res.Program, st.t.Source.Table())
		shares = append(shares, st.res.ByteLife)
		res.Tenants = append(res.Tenants, st.res)
	}
	res.Fairness = obs.JainIndex(shares)

	if col := r.cfg.Collector; col != nil {
		col.SetClock(r.clock)
		col.RecordSample(obs.Sample{
			Clock:       r.clock,
			LiveBytes:   r.admittedLive,
			LiveObjects: r.admittedObjs,
			HeapBytes:   r.cfg.Pool.HeapSize(),
		})
		col.MarkPhase("end")
		for _, tr := range res.Tenants {
			pre := "tenant." + tr.ID + "."
			col.Counter(pre + "admitted_objects").Add(tr.Sim.TotalAllocs)
			col.Counter(pre + "admitted_bytes").Add(tr.Sim.TotalBytes)
			col.Counter(pre + "admission_rejects").Add(tr.Rejected)
			col.Counter(pre + "reject_bytes").Add(tr.RejectedBytes)
			col.Counter(pre + "queued").Add(tr.Queued)
			col.Counter(pre + "queue_expired").Add(tr.QueueExpired)
			col.Counter(pre + "evicted").Add(tr.Evicted)
			col.Gauge(pre + "peak_live_bytes").Set(tr.PeakLive)
		}
		col.Gauge("cluster.fairness_ppm").Set(int64(res.Fairness * 1e6))
		col.Gauge("cluster.frag_peak_ppm").Set(int64(res.FragPeakPct * 1e4))
		col.Gauge("cluster.peak_live_bytes").Set(r.peakLive)
	}
	return res, nil
}
