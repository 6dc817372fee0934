package profile

import (
	"repro/internal/callchain"
	"repro/internal/trace"
)

// CCEPredictor is the call-chain-encryption variant of the predictor
// (paper §5.1, Carter's scheme): instead of walking the last four stack
// frames at each allocation, every function call XORs a 16-bit function id
// into a running key, and the allocator indexes its site database with
// (key, rounded size).
//
// The scheme trades precision for per-allocation speed: XOR keys are
// order-insensitive, cancel even recursion, and can collide outright. A
// site is admitted only if ALL objects sharing its (key, size) cell were
// short-lived, so collisions with long-lived sites silently disable
// prediction for the colliding short-lived sites — the scheme degrades
// toward fewer predictions, never toward more errors than the exact
// predictor trained on the same run.
type CCEPredictor struct {
	Config Config
	table  *callchain.Table // owns the encryption ids
	keys   map[cceKey]struct{}
}

type cceKey struct {
	key  uint16
	size int64
}

// TrainCCE trains a CCE predictor from annotated objects whose chains live
// in tb. Encryption ids are assigned with the minimizing heuristic over
// the chains observed in training (the paper's "static call-graph analysis
// may be used to determine the best ids"), seeded deterministically.
// It returns the predictor and the number of distinct observed chains
// whose keys still collide.
func TrainCCE(tb *callchain.Table, objs []trace.Object, cfg Config, seed uint64) (*CCEPredictor, int) {
	cfg = cfg.withDefaults()

	// Collect the distinct chains so id assignment can minimize their
	// key collisions.
	chainSet := make(map[callchain.ChainID]struct{})
	for i := range objs {
		chainSet[objs[i].Chain] = struct{}{}
	}
	chains := make([]callchain.ChainID, 0, len(chainSet))
	for c := range chainSet {
		chains = append(chains, c)
	}
	collisions := tb.AssignEncryptionIDsMinimizing(seed, chains, 4)

	type cell struct {
		objects int64
		short   int64
	}
	cells := make(map[cceKey]*cell)
	for i := range objs {
		o := &objs[i]
		k := cceKey{key: tb.EncryptionKey(o.Chain), size: cfg.roundSize(o.Size)}
		c := cells[k]
		if c == nil {
			c = &cell{}
			cells[k] = c
		}
		c.objects++
		if o.Lifetime < cfg.ShortThreshold {
			c.short++
		}
	}
	p := &CCEPredictor{Config: cfg, table: tb, keys: make(map[cceKey]struct{})}
	for k, c := range cells {
		if c.objects > 0 && float64(c.short) >= cfg.AdmitFraction*float64(c.objects) {
			p.keys[k] = struct{}{}
		}
	}
	return p, collisions
}

// NumSites reports the number of admitted (key, size) cells.
func (p *CCEPredictor) NumSites() int { return len(p.keys) }

// PredictShort reports the prediction for an allocation whose raw chain is
// interned in the predictor's own table.
func (p *CCEPredictor) PredictShort(raw callchain.ChainID, size int64) bool {
	k := cceKey{key: p.table.EncryptionKey(raw), size: p.Config.roundSize(size)}
	_, ok := p.keys[k]
	return ok
}

// EvaluateCCE runs the CCE predictor over annotated objects from the SAME
// execution it was trained on (self prediction; cross-run evaluation would
// additionally need identical id assignments in both binaries, which the
// paper assumes since the ids are compiled in).
func EvaluateCCE(objs []trace.Object, p *CCEPredictor) Eval {
	seen := make(map[cceKey]struct{})
	ev := score(objs, p.Config.ShortThreshold, func(o *trace.Object) bool {
		k := cceKey{key: p.table.EncryptionKey(o.Chain), size: p.Config.roundSize(o.Size)}
		seen[k] = struct{}{}
		_, ok := p.keys[k]
		return ok
	})
	ev.TotalSites = len(seen)
	ev.SitesUsed = p.NumSites()
	return ev
}
