package profile

import "repro/internal/callchain"

// Oracle is the per-allocation prediction interface the replay loops
// consult: a short/long verdict for a raw birth chain and request size,
// plus the lifetime threshold the verdict is relative to. Every lookup
// policy — the paper's rule, the quantile rule, the windowed rule — is a
// Predictor (a set of admitted sites keyed in its own table), a Mapper
// binds any SiteOracle (a Predictor or the LearnedOracle) to another
// execution's chains by function name, and CCEPredictor looks sites up by
// encryption key. Prediction-quality tracking scores any of them against
// actual lifetimes without knowing which is in play.
type Oracle interface {
	PredictShort(raw callchain.ChainID, size int64) bool
	ShortThreshold() int64
}

// ShortThreshold returns the lifetime threshold (bytes allocated) the
// predictor's short/long verdicts are relative to.
func (p *Predictor) ShortThreshold() int64 { return p.Config.ShortThreshold }

// ShortThreshold returns the lifetime threshold (bytes allocated) the
// predictor's short/long verdicts are relative to.
func (p *CCEPredictor) ShortThreshold() int64 { return p.Config.ShortThreshold }

var (
	_ Oracle = (*Predictor)(nil)
	_ Oracle = (*Mapper)(nil)
	_ Oracle = (*CCEPredictor)(nil)
)
