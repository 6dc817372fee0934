package profile

import (
	"math/bits"
	"sort"

	"repro/internal/callchain"
)

// The classifier hashes site chains into learnedBuckets feature buckets
// and trains for learnedEpochs full passes over the sites with
// gradient-descent step learnedRate.
const (
	learnedBuckets = 16
	learnedEpochs  = 8
	learnedRate    = 0.5
)

// LearnedOracle is a logistic classifier over (hashed site chain, rounded
// size magnitude, chain depth) features, trained to reproduce the paper's
// site admission rule from a profiled database. Unlike the lookup-based
// policies it generalizes: a site never seen in training still gets a
// verdict from its size and depth features. Training is pure Go and fully
// deterministic — sites are visited in sorted key order and the sigmoid is
// the algebraic approximation z -> 0.5*(1 + z/(1+|z|)), so no libm calls
// can perturb the committed goldens.
type LearnedOracle struct {
	cfg   Config
	table *callchain.Table
	// w holds [bias, sizeMagnitude, chainDepth, bucket0..bucketN-1].
	w []float64
}

const learnedFixed = 3 // bias, size magnitude, chain depth

// fastSigmoid is a branch-free rational approximation of the logistic
// function: exact at 0, same sign and monotonicity, range (0,1), built
// only from +,*,/ so results are bit-identical on every platform.
func fastSigmoid(z float64) float64 {
	az := z
	if az < 0 {
		az = -az
	}
	return 0.5 * (1 + z/(1+az))
}

// bucketOf assigns a chain to its hashed feature bucket.
func (l *LearnedOracle) bucketOf(chain callchain.ChainID) int {
	return int(l.table.Hash(chain) % learnedBuckets)
}

// features fills x for a site key. All features are non-negative and the
// bias is 1, so a single-label training set drives the decision to that
// label.
func (l *LearnedOracle) features(key SiteKey, x []float64) {
	for i := range x {
		x[i] = 0
	}
	x[0] = 1
	x[1] = float64(bits.Len64(uint64(key.Size))) / 16
	depth := l.table.Len(key.Chain)
	if depth > 16 {
		depth = 16
	}
	x[2] = float64(depth) / 16
	x[learnedFixed+l.bucketOf(key.Chain)] = 1
}

// score returns the raw decision value w·x for a site.
func (l *LearnedOracle) score(key SiteKey) float64 {
	x := make([]float64, len(l.w))
	l.features(key, x)
	var z float64
	for i, wi := range l.w {
		z += wi * x[i]
	}
	return z
}

// TrainLearned fits the classifier to a trained site database. Labels are
// the paper's exact admission rule per site (all training objects short),
// weighted by each site's object count so hot sites dominate the loss.
func TrainLearned(db *DB) *LearnedOracle {
	l := &LearnedOracle{
		cfg:   db.Config,
		table: db.Table,
		w:     make([]float64, learnedFixed+learnedBuckets),
	}

	keys := make([]SiteKey, 0, len(db.Sites))
	for k := range db.Sites {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Chain != keys[j].Chain {
			return keys[i].Chain < keys[j].Chain
		}
		return keys[i].Size < keys[j].Size
	})

	var total int64
	for _, k := range keys {
		total += db.Sites[k].Objects
	}
	if total == 0 {
		return l
	}

	x := make([]float64, len(l.w))
	for epoch := 0; epoch < learnedEpochs; epoch++ {
		for _, k := range keys {
			st := db.Sites[k]
			y := 0.0
			if st.admitted(db.Config.AdmitFraction) {
				y = 1.0
			}
			// Mean site weight is 1; hot sites count proportionally more.
			wgt := float64(st.Objects) * float64(len(keys)) / float64(total)
			l.features(k, x)
			var z float64
			for i, wi := range l.w {
				z += wi * x[i]
			}
			g := fastSigmoid(z) - y
			for i := range l.w {
				l.w[i] -= learnedRate * (g * x[i] * wgt)
			}
		}
	}
	return l
}

// AdmitSite implements SiteOracle: positive decision value predicts short.
func (l *LearnedOracle) AdmitSite(key SiteKey) bool { return l.score(key) > 0 }

// ProfileConfig implements SiteOracle.
func (l *LearnedOracle) ProfileConfig() Config { return l.cfg }

// Table implements SiteOracle.
func (l *LearnedOracle) Table() *callchain.Table { return l.table }

// PredictShort implements Oracle over the oracle's own chain table.
func (l *LearnedOracle) PredictShort(raw callchain.ChainID, size int64) bool {
	return predictVia(l, raw, size)
}

// ShortThreshold implements Oracle.
func (l *LearnedOracle) ShortThreshold() int64 { return l.cfg.ShortThreshold }

var (
	_ Oracle     = (*LearnedOracle)(nil)
	_ SiteOracle = (*LearnedOracle)(nil)
)
