package profile

import (
	"repro/internal/callchain"
	"repro/internal/trace"
)

// This file holds the predictor zoo: competing admission policies that all
// speak Oracle so the replay loops, accuracy tracker, and tournament can
// rank them head-to-head against the paper's all-short rule. Each policy
// decides admission per site; SiteMapper carries any of them across
// executions by the same function-name re-interning the paper's Mapper
// uses.

// SiteOracle is the site-level face of a zoo predictor: a verdict per
// SiteKey in the oracle's own chain table, plus the keying configuration
// and table needed to form (and cross-map) those keys. Implementations
// also satisfy Oracle directly by keying raw chains through their own
// table.
type SiteOracle interface {
	// AdmitSite reports whether allocations at the site are predicted
	// short-lived. The key's chain must be interned in Table().
	AdmitSite(key SiteKey) bool
	// ProfileConfig returns the site-keying configuration (threshold,
	// rounding, chain abstraction) the oracle was trained under.
	ProfileConfig() Config
	// Table returns the chain table the oracle's site keys live in.
	Table() *callchain.Table
}

// predictVia keys a raw own-table chain and size under the oracle's
// configuration and asks for the site verdict — the shared PredictShort
// body of every zoo oracle.
func predictVia(o SiteOracle, raw callchain.ChainID, size int64) bool {
	cfg := o.ProfileConfig()
	key := SiteKey{
		Chain: cfg.siteChain(o.Table(), raw),
		Size:  cfg.roundSize(size),
	}
	return o.AdmitSite(key)
}

// SiteMapper adapts a SiteOracle to chains from another execution's table
// — the paper's cross-run site mapping: transform the chain structurally
// in the foreign table, re-intern it by function name into the oracle's
// table (callchain.Table.InternFrom), memoize the mapping. It never
// caches final decisions — a windowed oracle's admissions drift as it
// keeps training, so only the (stable) chain mapping is safe to memoize.
// Mapper adds a decision cache on top for the paper's fixed Predictor.
type SiteMapper struct {
	o    SiteOracle
	from *callchain.Table
	memo map[callchain.ChainID]callchain.ChainID // raw from-chain -> site chain in o.Table()
}

// NewSiteMapper prepares a mapper from chains interned in from onto o.
func NewSiteMapper(o SiteOracle, from *callchain.Table) *SiteMapper {
	return &SiteMapper{
		o:    o,
		from: from,
		memo: make(map[callchain.ChainID]callchain.ChainID),
	}
}

// siteChainFrom maps a raw chain in the foreign table to the site chain
// interned in the oracle's table.
func (m *SiteMapper) siteChainFrom(raw callchain.ChainID) callchain.ChainID {
	if mapped, ok := m.memo[raw]; ok {
		return mapped
	}
	// Transform in the foreign table first (sub-chain / elimination are
	// structural), then re-intern by name in the oracle's table.
	mapped := m.o.Table().InternFrom(m.from, m.o.ProfileConfig().siteChain(m.from, raw))
	m.memo[raw] = mapped
	return mapped
}

// PredictShort implements Oracle for a foreign execution's chains.
func (m *SiteMapper) PredictShort(raw callchain.ChainID, size int64) bool {
	_, short := m.Site(raw, size)
	return short
}

// Site returns the mapped site key (in the oracle's table) and the admit
// verdict for one allocation — the stable identity a per-site allocator
// (Hanson-style) routes by. It does not touch Mapper's site-usage
// accounting.
func (m *SiteMapper) Site(raw callchain.ChainID, size int64) (SiteKey, bool) {
	key := SiteKey{
		Chain: m.siteChainFrom(raw),
		Size:  m.o.ProfileConfig().roundSize(size),
	}
	return key, m.o.AdmitSite(key)
}

// ShortThreshold implements Oracle.
func (m *SiteMapper) ShortThreshold() int64 {
	return m.o.ProfileConfig().ShortThreshold
}

// BindOracle returns an Oracle that accepts raw chains interned in from:
// a Mapper for the paper's Predictor, the oracle itself when it already
// speaks that table, or a cross-table SiteMapper otherwise. This is the
// one entry point the tournament uses to point any trained policy at a
// test trace.
func BindOracle(o Oracle, from *callchain.Table) Oracle {
	switch t := o.(type) {
	case *Predictor:
		return t.NewMapper(from)
	case SiteOracle:
		if t.Table() == from {
			return o
		}
		return NewSiteMapper(t, from)
	}
	return o
}

// QuantileConfig parameterizes the per-site quantile-threshold policy.
type QuantileConfig struct {
	// Q is the lifetime quantile consulted per site. Values >= 1 use the
	// exact tracked maximum (coinciding with the paper's all-short rule
	// when SlackPerByte is 0); lower values read the site's P² histogram.
	// Zero defaults to 1.
	Q float64
	// SlackPerByte makes the threshold per-site: a site keyed at rounded
	// size S is admitted against the training DB's ShortThreshold +
	// SlackPerByte*S, conceding larger objects proportionally more
	// byte-clock lifetime.
	SlackPerByte int64
}

// QuantileOracle admits a site iff the estimated Q-quantile of its
// training lifetime distribution clears the site's own threshold — the
// histogram-driven generalization of the paper's rule, with a per-site
// (size-dependent) threshold instead of a global one.
type QuantileOracle struct {
	db *DB
	qc QuantileConfig
}

// NewQuantileOracle builds the policy over a trained site database.
func NewQuantileOracle(db *DB, qc QuantileConfig) *QuantileOracle {
	if qc.Q == 0 {
		qc.Q = 1.0
	}
	return &QuantileOracle{db: db, qc: qc}
}

// SiteThreshold returns the lifetime threshold the site is admitted
// against: the training DB's ShortThreshold plus the per-byte slack
// scaled by the rounded size.
func (q *QuantileOracle) SiteThreshold(key SiteKey) int64 {
	return q.db.Config.ShortThreshold + q.qc.SlackPerByte*key.Size
}

// AdmitSite implements SiteOracle.
func (q *QuantileOracle) AdmitSite(key SiteKey) bool {
	st := q.db.Sites[key]
	if st == nil || st.Objects == 0 {
		return false
	}
	thr := q.SiteThreshold(key)
	if q.qc.Q >= 1.0 {
		// The tracked maximum is exact, unlike interior P² markers.
		return st.MaxLifetime < thr
	}
	return st.Hist.Quantile(q.qc.Q) < float64(thr)
}

// ProfileConfig implements SiteOracle.
func (q *QuantileOracle) ProfileConfig() Config { return q.db.Config }

// Table implements SiteOracle.
func (q *QuantileOracle) Table() *callchain.Table { return q.db.Table }

// PredictShort implements Oracle over the oracle's own chain table.
func (q *QuantileOracle) PredictShort(raw callchain.ChainID, size int64) bool {
	return predictVia(q, raw, size)
}

// ShortThreshold implements Oracle. Verdicts are scored against the
// training configuration's global threshold regardless of per-site slack.
func (q *QuantileOracle) ShortThreshold() int64 { return q.db.Config.ShortThreshold }

// WindowedConfig parameterizes the decaying online policy.
type WindowedConfig struct {
	// Window is the number of most-recent deaths per site the verdict is
	// computed over. Zero (or negative) keeps every observation, which
	// makes the oracle equal the batch quantile policy at the same Q.
	Window int
	// Q is the fraction of windowed observations that must have been
	// short for the site to be admitted. Zero defaults to 1 (all short,
	// the paper's rule applied to the window).
	Q float64
}

// siteWindow is one site's ring of recent short/long outcomes.
type siteWindow struct {
	ring  []bool
	next  int
	n     int64 // observations currently in the window
	short int64 // short observations among them
}

// WindowedOracle trains incrementally, one object death at a time, and
// admits a site from its recent history only — so admissions drift as the
// program moves between phases. TrainWindowed feeds it from a streaming
// Source; Observe keeps training it online afterwards.
type WindowedOracle struct {
	cfg   Config
	wc    WindowedConfig
	table *callchain.Table
	sites map[SiteKey]*siteWindow
}

// NewWindowedOracle returns an untrained windowed policy keying sites in
// the given table.
func NewWindowedOracle(tb *callchain.Table, cfg Config, wc WindowedConfig) *WindowedOracle {
	cfg = cfg.withDefaults()
	if wc.Q == 0 {
		wc.Q = 1.0
	}
	return &WindowedOracle{
		cfg:   cfg,
		wc:    wc,
		table: tb,
		sites: make(map[SiteKey]*siteWindow),
	}
}

// TrainWindowed streams a source through a fresh windowed oracle: objects
// arrive in death order (the order an online profiler would see them), so
// the final window state reflects each site's most recent behaviour.
func TrainWindowed(src trace.Source, cfg Config, wc WindowedConfig) (*WindowedOracle, error) {
	w := NewWindowedOracle(src.Table(), cfg, wc)
	if err := trace.AnnotateStream(src, func(o trace.Object) error {
		w.Observe(o)
		return nil
	}); err != nil {
		return nil, err
	}
	return w, nil
}

// Observe trains on one annotated object, evicting the oldest windowed
// observation at the object's site once the window is full.
func (w *WindowedOracle) Observe(o trace.Object) {
	key := SiteKey{
		Chain: w.cfg.siteChain(w.table, o.Chain),
		Size:  w.cfg.roundSize(o.Size),
	}
	sw := w.sites[key]
	if sw == nil {
		sw = &siteWindow{}
		if w.wc.Window > 0 {
			sw.ring = make([]bool, w.wc.Window)
		}
		w.sites[key] = sw
	}
	short := o.Lifetime < w.cfg.ShortThreshold
	if w.wc.Window <= 0 {
		sw.n++
	} else {
		if sw.n == int64(w.wc.Window) {
			if sw.ring[sw.next] {
				sw.short--
			}
		} else {
			sw.n++
		}
		sw.ring[sw.next] = short
		sw.next = (sw.next + 1) % w.wc.Window
	}
	if short {
		sw.short++
	}
}

// AdmitSite implements SiteOracle: at least fraction Q of the windowed
// observations were short.
func (w *WindowedOracle) AdmitSite(key SiteKey) bool {
	sw := w.sites[key]
	if sw == nil || sw.n == 0 {
		return false
	}
	return float64(sw.short) >= w.wc.Q*float64(sw.n)
}

// ProfileConfig implements SiteOracle.
func (w *WindowedOracle) ProfileConfig() Config { return w.cfg }

// Table implements SiteOracle.
func (w *WindowedOracle) Table() *callchain.Table { return w.table }

// PredictShort implements Oracle over the oracle's own chain table.
func (w *WindowedOracle) PredictShort(raw callchain.ChainID, size int64) bool {
	return predictVia(w, raw, size)
}

// ShortThreshold implements Oracle.
func (w *WindowedOracle) ShortThreshold() int64 { return w.cfg.ShortThreshold }

// NumSites reports how many distinct sites have been observed.
func (w *WindowedOracle) NumSites() int { return len(w.sites) }

// OracleTrainer names one zoo policy and trains it from a trace under a
// site-keying configuration. The returned Oracle keys raw chains in the
// training trace's own table; use BindOracle to point it at another
// execution.
type OracleTrainer struct {
	Name  string
	Train func(tr *trace.Trace, cfg Config) (Oracle, error)
}

// ZooTrainers returns the registered prediction policies in tournament
// order: the paper's all-short rule plus the three competing policies.
// Every entry must pass internal/check's differential suite before a
// tournament will run it.
func ZooTrainers() []OracleTrainer {
	return []OracleTrainer{
		{Name: "paper", Train: func(tr *trace.Trace, cfg Config) (Oracle, error) {
			db, err := Train(tr, cfg)
			if err != nil {
				return nil, err
			}
			return db.Predictor(), nil
		}},
		{Name: "quantile", Train: func(tr *trace.Trace, cfg Config) (Oracle, error) {
			db, err := Train(tr, cfg)
			if err != nil {
				return nil, err
			}
			return NewQuantileOracle(db, QuantileConfig{Q: 0.95, SlackPerByte: 8}), nil
		}},
		{Name: "window", Train: func(tr *trace.Trace, cfg Config) (Oracle, error) {
			return TrainWindowed(trace.NewSliceSource(tr), cfg, WindowedConfig{Window: 128, Q: 0.95})
		}},
		{Name: "learned", Train: func(tr *trace.Trace, cfg Config) (Oracle, error) {
			db, err := Train(tr, cfg)
			if err != nil {
				return nil, err
			}
			return TrainLearned(db), nil
		}},
	}
}

var (
	_ Oracle     = (*QuantileOracle)(nil)
	_ Oracle     = (*WindowedOracle)(nil)
	_ Oracle     = (*SiteMapper)(nil)
	_ SiteOracle = (*Predictor)(nil)
	_ SiteOracle = (*QuantileOracle)(nil)
	_ SiteOracle = (*WindowedOracle)(nil)
)
