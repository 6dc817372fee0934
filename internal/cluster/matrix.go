package cluster

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/callchain"
	"repro/internal/core"
	"repro/internal/heapsim"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/table"
)

// TenantSpec names one tenant workload in the matrix: a synth model,
// optionally duplicated ("cfrac#2" is a second cfrac instance whose test
// input is generated at a deterministic seed offset, so duplicates are
// the same program under different inputs, sharing the model's trained
// predictor).
type TenantSpec struct {
	ID         string
	Model      string
	SeedOffset uint64
}

// dupSeedStride separates duplicate tenants' generation seeds; any fixed
// odd constant works, this one is prime for no particular reason beyond
// making collisions with the train/test +1000 rule impossible.
const dupSeedStride = 104729

// ParseTenantSpec parses "model" or "model#k" (k >= 1; #1 is the base
// instance, #2 the first duplicate, at seed offset (k-1)*dupSeedStride).
func ParseTenantSpec(s string) (TenantSpec, error) {
	name, inst := s, 1
	if i := strings.IndexByte(s, '#'); i >= 0 {
		name = s[:i]
		k, err := strconv.Atoi(s[i+1:])
		if err != nil || k < 1 {
			return TenantSpec{}, fmt.Errorf("cluster: bad tenant instance in %q", s)
		}
		inst = k
	}
	if name == "" {
		return TenantSpec{}, fmt.Errorf("cluster: empty tenant model in %q", s)
	}
	if synth.ByName(name) == nil {
		return TenantSpec{}, fmt.Errorf("cluster: unknown tenant model %q", name)
	}
	return TenantSpec{ID: s, Model: name, SeedOffset: uint64(inst-1) * dupSeedStride}, nil
}

// maxPoolMembers caps the members one pool spec may name: 16 times the
// 4-member shapes lpcluster and its golden use.
const maxPoolMembers = 64

// ParsePoolSpec expands a pool shape like "4xarena" or "2xarena+2xbsd"
// into the ordered member-kind list. Every kind must be a core allocator
// name, and the shape may hold at most maxPoolMembers members.
func ParsePoolSpec(s string) ([]string, error) {
	var kinds []string
	for _, part := range strings.Split(s, "+") {
		n, kind := 1, part
		if i := strings.IndexByte(part, 'x'); i > 0 {
			if cnt, err := strconv.Atoi(part[:i]); err == nil {
				if cnt < 1 {
					return nil, fmt.Errorf("cluster: bad member count in pool spec %q: %q", s, part)
				}
				n, kind = cnt, part[i+1:]
			}
		}
		if err := core.CheckAllocator(kind); err != nil {
			return nil, fmt.Errorf("cluster: pool spec %q: %w", s, err)
		}
		if n > maxPoolMembers-len(kinds) {
			return nil, fmt.Errorf("cluster: pool spec %q: %q takes the pool past %d members", s, part, maxPoolMembers)
		}
		for j := 0; j < n; j++ {
			kinds = append(kinds, kind)
		}
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("cluster: empty pool spec %q", s)
	}
	return kinds, nil
}

// MatrixConfig parameterizes a cluster tournament: every routing policy
// crossed with every pool shape, over one shared tenant population.
type MatrixConfig struct {
	// Core supplies the scale/seed rule the tenant inputs derive from.
	Core core.Config
	// Tenants are "model" or "model#k" specs (at least one).
	Tenants []string
	// Policies are routing policy names; defaults to PolicyNames().
	Policies []string
	// Pools are pool shape specs (at least one).
	Pools []string
	// Admission arbitrates the stressed replay's budget.
	Admission AdmissionMode
	// Budget fixes the stressed replay's live-byte budget; 0 derives it
	// per scenario as half the unconstrained replay's peak (self-
	// calibrating stress).
	Budget int64
	// Workers caps concurrent scenarios; values below 1 clamp to
	// GOMAXPROCS, as in core.Schedule. Results are byte-identical at any
	// worker count.
	Workers int
}

// ScenarioResult is one (policy, pool) cell: an unconstrained replay
// (fragmentation and fairness with no admission control) and a stressed
// replay at the scenario budget (admission behavior under pressure).
type ScenarioResult struct {
	Policy string
	Pool   string
	// Budget is the stressed replay's live-byte cap.
	Budget int64
	// Free is the unconstrained replay (Budget 0).
	Free *Result
	// Stressed is the replay under Budget with the configured admission
	// mode.
	Stressed *Result
}

// Rejects sums the stressed replay's admission rejects across tenants.
func (s *ScenarioResult) Rejects() int64 {
	var n int64
	for _, tr := range s.Stressed.Tenants {
		n += tr.Rejected
	}
	return n
}

// RejectedBytePct is the stressed replay's rejected payload share of all
// offered bytes, in percent.
func (s *ScenarioResult) RejectedBytePct() float64 {
	if s.Stressed.Clock == 0 {
		return 0
	}
	var b int64
	for _, tr := range s.Stressed.Tenants {
		b += tr.RejectedBytes
	}
	return 100 * float64(b) / float64(s.Stressed.Clock)
}

// MatrixResult is a finished tournament, scenarios ranked best-first.
type MatrixResult struct {
	Tenants   []TenantSpec
	Admission AdmissionMode
	// Scenarios is ranked: fragmentation peak ascending, then stressed
	// fairness descending, then rejects ascending, then (policy, pool)
	// name — a total order, so the report is unambiguous.
	Scenarios []ScenarioResult
}

// RunMatrix runs the full policy × pool tournament as one core.Schedule
// program: its build is the set-up (streaming-trained predictors and the
// predictor-table warm pass), its cells are the scenarios, filled into
// slots in matrix order, so the result is byte-identical at any worker
// count.
func RunMatrix(cfg MatrixConfig) (*MatrixResult, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("cluster: matrix needs at least one tenant")
	}
	if len(cfg.Pools) == 0 {
		return nil, fmt.Errorf("cluster: matrix needs at least one pool spec")
	}
	policies := cfg.Policies
	if len(policies) == 0 {
		policies = PolicyNames()
	}
	for _, p := range policies {
		if _, err := NewPolicy(p); err != nil {
			return nil, err
		}
	}
	specs := make([]TenantSpec, len(cfg.Tenants))
	seen := map[string]bool{}
	for i, s := range cfg.Tenants {
		spec, err := ParseTenantSpec(s)
		if err != nil {
			return nil, err
		}
		if seen[spec.ID] {
			return nil, fmt.Errorf("cluster: duplicate tenant spec %q (use #k suffixes)", s)
		}
		seen[spec.ID] = true
		specs[i] = spec
	}
	pools := make([][]string, len(cfg.Pools))
	for i, s := range cfg.Pools {
		kinds, err := ParsePoolSpec(s)
		if err != nil {
			return nil, err
		}
		pools[i] = kinds
	}

	// The set-up is Schedule's one build, so it runs alone: the Train-input
	// predictor of each distinct model, trained once from a streaming
	// source (Config.TrainPredictor), then a warm pass that interns every
	// tenant table's site chains into the shared predictor tables. After
	// this, each scenario's profile.Mapper keeps its memos to itself and
	// only reads the shared tables, which is what makes the scenario
	// cells race-free.
	preds := map[string]*profile.Predictor{}
	slots := make([]ScenarioResult, len(policies)*len(cfg.Pools))
	build := func(int) (func(int) error, error) {
		for _, spec := range specs {
			pred, ok := preds[spec.Model]
			if !ok {
				var err error
				if pred, err = cfg.Core.TrainPredictor(synth.ByName(spec.Model), synth.Train); err != nil {
					return nil, err
				}
				preds[spec.Model] = pred
			}
			ten, err := buildTenant(cfg.Core, spec, pred)
			if err != nil {
				return nil, err
			}
			tb := ten.Source.Table()
			for c := 0; c < tb.NumChains(); c++ {
				ten.Oracle.PredictShort(callchain.ChainID(c), 8)
			}
		}
		return func(i int) error {
			qi := i % len(cfg.Pools)
			var err error
			slots[i], err = runScenario(cfg, specs, preds, policies[i/len(cfg.Pools)], cfg.Pools[qi], pools[qi])
			return err
		}, nil
	}
	if err := core.Schedule(1, len(slots), cfg.Workers, build); err != nil {
		return nil, err
	}

	res := &MatrixResult{Tenants: specs, Admission: cfg.Admission, Scenarios: slots}
	sort.SliceStable(res.Scenarios, func(a, b int) bool {
		sa, sb := &res.Scenarios[a], &res.Scenarios[b]
		if sa.Free.FragPeakPct != sb.Free.FragPeakPct {
			return sa.Free.FragPeakPct < sb.Free.FragPeakPct
		}
		if sa.Stressed.Fairness != sb.Stressed.Fairness {
			return sa.Stressed.Fairness > sb.Stressed.Fairness
		}
		if ra, rb := sa.Rejects(), sb.Rejects(); ra != rb {
			return ra < rb
		}
		if sa.Policy != sb.Policy {
			return sa.Policy < sb.Policy
		}
		return sa.Pool < sb.Pool
	})
	return res, nil
}

// runScenario runs one (policy, pool) cell: unconstrained, then stressed
// at half the unconstrained peak (or the fixed MatrixConfig budget).
func runScenario(cfg MatrixConfig, specs []TenantSpec, preds map[string]*profile.Predictor, policy, poolSpec string, kinds []string) (ScenarioResult, error) {
	replay := func(budget int64) (*Result, error) {
		tenants := make([]Tenant, len(specs))
		for i, spec := range specs {
			t, err := buildTenant(cfg.Core, spec, preds[spec.Model])
			if err != nil {
				return nil, err
			}
			tenants[i] = t
		}
		pool, err := newPoolOf(poolSpec, kinds)
		if err != nil {
			return nil, err
		}
		pol, err := NewPolicy(policy)
		if err != nil {
			return nil, err
		}
		return Run(Config{
			Pool:      pool,
			Policy:    pol,
			Admission: cfg.Admission,
			Budget:    budget,
		}, tenants)
	}
	free, err := replay(0)
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("cluster: %s/%s free replay: %w", policy, poolSpec, err)
	}
	budget := cfg.Budget
	if budget == 0 {
		budget = free.PeakLive / 2
		if budget == 0 {
			budget = 1
		}
	}
	stressed, err := replay(budget)
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("cluster: %s/%s stressed replay: %w", policy, poolSpec, err)
	}
	return ScenarioResult{Policy: policy, Pool: poolSpec, Budget: budget, Free: free, Stressed: stressed}, nil
}

// buildTenant makes a fresh single-use tenant (source + oracle mapper
// bound to the model's predictor) from its spec. Sources are never shared
// across replays.
func buildTenant(c core.Config, spec TenantSpec, pred *profile.Predictor) (Tenant, error) {
	gc := c.GenConfig(synth.Test)
	gc.Seed += spec.SeedOffset
	src, err := synth.ByName(spec.Model).Source(gc)
	if err != nil {
		return Tenant{}, fmt.Errorf("cluster: tenant %s: %w", spec.ID, err)
	}
	return Tenant{
		ID:     spec.ID,
		Source: src,
		Oracle: pred.NewMapper(src.Table()),
	}, nil
}

// newPoolOf builds a fresh pool from expanded member kinds.
func newPoolOf(spec string, kinds []string) (*heapsim.Pool, error) {
	members := make([]heapsim.Allocator, len(kinds))
	for i, k := range kinds {
		a, err := core.NewAllocator(k)
		if err != nil {
			return nil, err
		}
		members[i] = a
	}
	return heapsim.NewPool("pool:"+spec, members...)
}

// WriteReport renders the ranked tournament: the scenario leaderboard,
// then the per-tenant breakdown of every scenario in rank order. Output
// is deterministic — the golden the CLI test pins.
func (r *MatrixResult) WriteReport(w io.Writer) error {
	ids := make([]string, len(r.Tenants))
	for i, t := range r.Tenants {
		ids[i] = t.ID
	}
	sort.Strings(ids)
	fmt.Fprintf(w, "Cluster tournament: %d scenarios over tenants %s (admission %s)\n",
		len(r.Scenarios), strings.Join(ids, ","), r.Admission)
	fmt.Fprintf(w, "Rank: fragmentation peak asc, stressed fairness desc, rejects asc.\n\n")

	lead := table.New("Scenario leaderboard",
		"rank", "policy", "pool", "frag%", "fair", "fair*", "rejects", "rej%", "peakKB", "budgetKB")
	for i := range r.Scenarios {
		s := &r.Scenarios[i]
		lead.RowStrings(
			strconv.Itoa(i+1),
			s.Policy,
			s.Pool,
			fmt.Sprintf("%.1f", s.Free.FragPeakPct),
			fmt.Sprintf("%.3f", s.Free.Fairness),
			fmt.Sprintf("%.3f", s.Stressed.Fairness),
			strconv.FormatInt(s.Rejects(), 10),
			fmt.Sprintf("%.1f", s.RejectedBytePct()),
			strconv.FormatInt(s.Free.PeakLive/1024, 10),
			strconv.FormatInt(s.Budget/1024, 10),
		)
	}
	if _, err := lead.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "frag%% / fair: unconstrained replay; fair* / rejects / rej%%: stressed replay at budgetKB.\n\n")

	// Tenant-visible outcomes depend only on the budget and admission
	// mode, never on routing (admission is placement-independent), so one
	// breakdown covers every scenario; the rank-1 cell supplies it.
	s := &r.Scenarios[0]
	freeShare := byteLifeShares(s.Free)
	stressShare := byteLifeShares(s.Stressed)
	det := table.New("Per-tenant breakdown (identical across scenarios: admission is placement-independent)",
		"tenant", "allocs", "admitKB", "peakKB", "occ%", "share%", "share*%", "rejects", "rejKB")
	for j := range s.Stressed.Tenants {
		ft, st := &s.Free.Tenants[j], &s.Stressed.Tenants[j]
		occ := 0.0
		if s.Free.PeakLive > 0 {
			occ = 100 * float64(ft.PeakLive) / float64(s.Free.PeakLive)
		}
		det.RowStrings(
			st.ID,
			strconv.FormatInt(ft.Sim.TotalAllocs, 10),
			strconv.FormatInt(ft.Sim.TotalBytes/1024, 10),
			strconv.FormatInt(ft.PeakLive/1024, 10),
			fmt.Sprintf("%.1f", occ),
			fmt.Sprintf("%.1f", freeShare[j]),
			fmt.Sprintf("%.1f", stressShare[j]),
			strconv.FormatInt(st.Rejected, 10),
			strconv.FormatInt(st.RejectedBytes/1024, 10),
		)
	}
	if _, err := det.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "allocs/admitKB/peakKB/occ%%/share%%: unconstrained (occ%% = tenant peak / cluster peak);\nshare*%%/rejects/rejKB: stressed replay.\n")
	return nil
}

// byteLifeShares returns each tenant's percentage of the run's total
// byte-life integral (the fairness decomposition).
func byteLifeShares(res *Result) []float64 {
	var total float64
	for _, tr := range res.Tenants {
		total += tr.ByteLife
	}
	out := make([]float64, len(res.Tenants))
	if total == 0 {
		return out
	}
	for i, tr := range res.Tenants {
		out[i] = 100 * tr.ByteLife / total
	}
	return out
}
