package profile

import "repro/internal/callchain"

// Oracle is the per-allocation prediction interface the replay loops
// consult: a short/long verdict for a raw birth chain and request size,
// plus the lifetime threshold the verdict is relative to. All three
// predictor paths implement it — Predictor (own-table lookup), Mapper
// (cross-table lookup by function name), and CCEPredictor (encryption-key
// lookup) — so prediction-quality tracking can score any of them against
// actual lifetimes without knowing which variant is in play.
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
