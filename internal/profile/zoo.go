package profile

import (
	"repro/internal/callchain"
	"repro/internal/trace"
)

// This file holds the predictor zoo: competing admission policies that all
// speak Oracle so the replay loops, accuracy tracker, and tournament can
// rank them head-to-head against the paper's all-short rule. The quantile
// and windowed rules each produce a Predictor — a set of admitted sites,
// like the paper's — and the learned classifier is a SiteOracle that
// scores any site. One Mapper carries every one of them across
// executions by the paper's function-name re-interning.

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

// BindOracle returns an Oracle that accepts raw chains interned in from:
// a Mapper for any SiteOracle, the oracle itself otherwise (CCEPredictor
// keys by encryption key, not by site). This is the one entry point the
// tournament uses to point any trained policy at a test trace.
func BindOracle(o Oracle, from *callchain.Table) Oracle {
	if so, ok := o.(SiteOracle); ok {
		return NewMapper(so, from)
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

// QuantilePredictor admits each trained site whose estimated Q-quantile
// training lifetime clears the site's own threshold — the
// histogram-driven generalization of the paper's rule, with a per-site
// (size-dependent) threshold instead of a global one. Verdicts are still
// scored against the DB's global ShortThreshold.
func (db *DB) QuantilePredictor(qc QuantileConfig) *Predictor {
	if qc.Q == 0 {
		qc.Q = 1.0
	}
	return predictorOf(db.Config, db.Table, db.Sites, func(key SiteKey, st *SiteStats) bool {
		thr := db.Config.ShortThreshold + qc.SlackPerByte*key.Size
		if qc.Q >= 1.0 {
			// The tracked maximum is exact, unlike interior P² markers.
			return st.MaxLifetime < thr
		}
		return st.Hist.Quantile(qc.Q) < float64(thr)
	})
}

// WindowedConfig parameterizes the decaying online policy.
type WindowedConfig struct {
	// Window is the number of most-recent deaths per site the verdict is
	// computed over. Zero (or negative) keeps every observation, which
	// makes the windowed predictor equal the batch quantile one at the
	// same Q.
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

// TrainWindowed streams a source through per-site windows of recent
// deaths and returns the Predictor the final windows admit: a site whose
// windowed observations were at least fraction Q short. Objects arrive in
// death order (the order an online profiler would see them), so each
// window holds its site's most recent behaviour, and a site that changed
// phase is judged by the newer phase.
func TrainWindowed(src trace.Source, cfg Config, wc WindowedConfig) (*Predictor, error) {
	cfg = cfg.withDefaults()
	if wc.Q == 0 {
		wc.Q = 1.0
	}
	tb := src.Table()
	k := &siteKeyer{cfg: cfg, tb: tb}
	windows := make(map[SiteKey]*siteWindow)
	if err := trace.AnnotateStream(src, func(o trace.Object) error {
		key := k.key(o.Chain, o.Size)
		sw := windows[key]
		if sw == nil {
			sw = &siteWindow{}
			if wc.Window > 0 {
				sw.ring = make([]bool, wc.Window)
			}
			windows[key] = sw
		}
		short := o.Lifetime < cfg.ShortThreshold
		if wc.Window <= 0 {
			sw.n++
		} else {
			// A full window evicts its oldest observation.
			if sw.n == int64(wc.Window) {
				if sw.ring[sw.next] {
					sw.short--
				}
			} else {
				sw.n++
			}
			sw.ring[sw.next] = short
			sw.next = (sw.next + 1) % wc.Window
		}
		if short {
			sw.short++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return predictorOf(cfg, tb, windows, func(_ SiteKey, sw *siteWindow) bool {
		return sw.n > 0 && float64(sw.short) >= wc.Q*float64(sw.n)
	}), nil
}

// OracleTrainer names one zoo policy and derives it from a trained site
// database: db must have been trained on tr, under the configuration the
// policy keys its sites by. The lookup and learned policies read db
// alone; the windowed one streams tr again in death order. The returned
// Oracle keys raw chains in the training trace's own table; use
// BindOracle to point it at another execution.
type OracleTrainer struct {
	Name  string
	Train func(db *DB, tr *trace.Trace) (Oracle, error)
}

// ZooTrainers returns the registered prediction policies in tournament
// order: the paper's all-short rule plus the three competing policies.
// Every entry must pass internal/check's differential suite before a
// tournament will run it.
func ZooTrainers() []OracleTrainer {
	return []OracleTrainer{
		{Name: "paper", Train: func(db *DB, _ *trace.Trace) (Oracle, error) {
			return db.Predictor(), nil
		}},
		{Name: "quantile", Train: func(db *DB, _ *trace.Trace) (Oracle, error) {
			return db.QuantilePredictor(QuantileConfig{Q: 0.95, SlackPerByte: 8}), nil
		}},
		{Name: "window", Train: func(db *DB, tr *trace.Trace) (Oracle, error) {
			return TrainWindowed(trace.NewSliceSource(tr), db.Config, WindowedConfig{Window: 128, Q: 0.95})
		}},
		{Name: "learned", Train: func(db *DB, _ *trace.Trace) (Oracle, error) {
			return TrainLearned(db), nil
		}},
	}
}

var _ SiteOracle = (*Predictor)(nil)
