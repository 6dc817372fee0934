// Package profile implements the paper's lifetime-prediction machinery:
// training a per-allocation-site lifetime database from a trace (§4.1),
// selecting the sites whose objects were all short-lived as predictors
// (§4), mapping training sites onto a different execution's sites with
// 4-byte size rounding (§4, "true prediction"), and evaluating a predictor
// against a trace to produce the Table 4/5/6 metrics.
//
// An allocation site is a (call-chain, size) pair. The call-chain used for
// the site key is configurable: the complete chain with recursion cycles
// eliminated (the paper's infinity case), a length-N sub-chain without
// elimination (Table 6's rows), or no chain at all (Table 5's size-only
// predictor).
package profile

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/callchain"
	"repro/internal/quantile"
	"repro/internal/trace"
)

// Config controls site keying and predictor admission.
type Config struct {
	// ShortThreshold is the lifetime (bytes allocated) below which an
	// object counts as short-lived. The paper fixes 32 kilobytes.
	ShortThreshold int64

	// SizeRounding rounds object sizes up to a multiple of this value
	// when forming site keys, which is what lets corresponding sites map
	// across runs (§4: "by rounding the object size to a multiple of
	// four bytes, we found the corresponding sites were more likely to
	// map correctly"). The paper uses 4.
	SizeRounding int64

	// ChainLength selects the call-chain abstraction: 0 uses the
	// complete chain with recursion elimination; N > 0 uses the last N
	// callers without elimination (matching the paper's note that the
	// infinity case alone performs cycle elimination).
	ChainLength int

	// SizeOnly ignores the chain entirely, keying sites by rounded size
	// alone (Table 5).
	SizeOnly bool

	// AdmitFraction is the fraction of a site's training objects that
	// must have been short-lived for the site to be admitted as a
	// predictor. The paper requires all of them (1.0); lower values are
	// an ablation ("how large should this percentage be?", §4.1).
	AdmitFraction float64
}

// histCells is the number of equiprobable cells in each site's P²
// lifetime quantile histogram: quartiles.
const histCells = 4

// DefaultConfig returns the paper's configuration: 32KB threshold, 4-byte
// rounding, complete chains, all-short admission.
func DefaultConfig() Config {
	return Config{
		ShortThreshold: 32 << 10,
		SizeRounding:   4,
		ChainLength:    0,
		AdmitFraction:  1.0,
	}
}

func (c Config) withDefaults() Config {
	if c.ShortThreshold == 0 {
		c.ShortThreshold = 32 << 10
	}
	if c.SizeRounding == 0 {
		c.SizeRounding = 4
	}
	if c.AdmitFraction == 0 {
		c.AdmitFraction = 1.0
	}
	return c
}

// roundSize rounds a request size up to the configured multiple.
func (c Config) roundSize(size int64) int64 {
	r := c.SizeRounding
	if r <= 1 {
		return size
	}
	return (size + r - 1) / r * r
}

// siteChain transforms a raw birth chain into the site-key chain under the
// configuration, interning any derived chains into tb.
func (c Config) siteChain(tb *callchain.Table, raw callchain.ChainID) callchain.ChainID {
	if c.SizeOnly {
		return 0
	}
	if c.ChainLength > 0 {
		return tb.SubChain(raw, c.ChainLength)
	}
	return tb.EliminateRecursion(raw)
}

// chainMemo memoizes one derived chain per raw chain: the site chain a
// training call keys its objects by, or the chain a Mapper maps a foreign
// chain to. It is indexed by raw ChainID and stores the result plus one,
// so 0 marks an unseen chain, and it grows on demand because a streaming
// source interns chains mid-stream. Each training call and each Mapper
// owns its memo, so no shared table, database or predictor gains state.
type chainMemo []callchain.ChainID

// get returns the memoized chain for raw, if there is one.
func (m chainMemo) get(raw callchain.ChainID) (callchain.ChainID, bool) {
	if int(raw) < len(m) && m[raw] != 0 {
		return m[raw] - 1, true
	}
	return 0, false
}

// put memoizes derived as raw's chain.
func (m *chainMemo) put(raw, derived callchain.ChainID) {
	if n := int(raw) + 1; n > len(*m) {
		*m = append(*m, make(chainMemo, n-len(*m))...)
	}
	(*m)[raw] = derived + 1
}

// siteKeyer keys objects into sites under one configuration, deriving each
// raw chain's site chain once.
type siteKeyer struct {
	cfg    Config
	tb     *callchain.Table
	chains chainMemo
}

// key returns the site of an allocation with the given raw chain and size.
func (k *siteKeyer) key(raw callchain.ChainID, size int64) SiteKey {
	chain, ok := k.chains.get(raw)
	if !ok {
		chain = k.cfg.siteChain(k.tb, raw)
		k.chains.put(raw, chain)
	}
	return SiteKey{Chain: chain, Size: k.cfg.roundSize(size)}
}

// SiteKey identifies an allocation site under some Config. The chain id is
// relative to the table the DB or Predictor was built with.
type SiteKey struct {
	Chain callchain.ChainID
	Size  int64
}

// ID folds the key into a stable, well-mixed 64-bit identity: the pool a
// per-site allocator (heapsim.SiteArena.AllocAt) routes the site to. A
// plain shift-xor would be congruent to the size modulo the bucket count.
func (k SiteKey) ID() uint64 {
	return (uint64(k.Chain)+1)*0x9e3779b97f4a7c15 ^ uint64(k.Size)*0xc2b2ae3d27d4eb4f
}

// SiteStats accumulates the training observations for one site.
type SiteStats struct {
	Objects     int64
	Bytes       int64
	ShortBytes  int64
	ShortCount  int64
	Refs        int64
	MaxLifetime int64
	Hist        *quantile.Histogram
}

// admitted reports whether the site passes the exact-count admission rule.
func (s *SiteStats) admitted(frac float64) bool {
	if s.Objects == 0 {
		return false
	}
	return float64(s.ShortCount) >= frac*float64(s.Objects)
}

// DB is a trained site database: the output of a training run, mapping
// every site to its lifetime statistics and quantile histogram.
type DB struct {
	Config Config
	Table  *callchain.Table
	Sites  map[SiteKey]*SiteStats
}

// Train builds a site database from a trace. The DB shares the trace's
// chain table (it interns derived sub-chains into it).
func Train(tr *trace.Trace, cfg Config) (*DB, error) {
	objs, err := trace.Annotate(tr)
	if err != nil {
		return nil, err
	}
	return TrainObjects(tr.Table, objs, cfg), nil
}

// TrainSource builds a site database from a streaming event source,
// holding only the live-object set and the per-site statistics — never
// the trace. The source's chain table becomes the DB's table.
//
// Objects reach the database in death order (never-freed objects last)
// rather than Annotate's birth order. The exact-count admission rule is
// order-insensitive, so the resulting Predictor is identical to one
// trained via Train/TrainObjects on the materialized trace; only the P²
// quantile histograms are insertion-order sensitive and may differ in
// their interior markers.
func TrainSource(src trace.Source, cfg Config) (*DB, error) {
	cfg = cfg.withDefaults()
	db := &DB{Config: cfg, Table: src.Table(), Sites: make(map[SiteKey]*SiteStats)}
	k := &siteKeyer{cfg: cfg, tb: db.Table}
	if err := trace.AnnotateStream(src, func(o trace.Object) error {
		db.addObject(k, &o)
		return nil
	}); err != nil {
		return nil, err
	}
	return db, nil
}

// TrainObjects builds a site database from pre-annotated objects whose
// chains live in tb.
func TrainObjects(tb *callchain.Table, objs []trace.Object, cfg Config) *DB {
	cfg = cfg.withDefaults()
	db := &DB{Config: cfg, Table: tb, Sites: make(map[SiteKey]*SiteStats)}
	k := &siteKeyer{cfg: cfg, tb: tb}
	for i := range objs {
		db.addObject(k, &objs[i])
	}
	return db
}

func (db *DB) addObject(k *siteKeyer, o *trace.Object) {
	key := k.key(o.Chain, o.Size)
	st := db.Sites[key]
	if st == nil {
		h, err := quantile.NewHistogram(histCells)
		if err != nil {
			panic(fmt.Sprintf("profile: bad histCells: %v", err))
		}
		st = &SiteStats{Hist: h}
		db.Sites[key] = st
	}
	st.Objects++
	st.Bytes += o.Size
	st.Refs += o.Refs
	st.Hist.Add(float64(o.Lifetime))
	if o.Lifetime > st.MaxLifetime {
		st.MaxLifetime = o.Lifetime
	}
	if o.Lifetime < db.Config.ShortThreshold {
		st.ShortCount++
		st.ShortBytes += o.Size
	}
}

// NumSites reports the number of distinct sites observed.
func (db *DB) NumSites() int { return len(db.Sites) }

// Predictor extracts the set of admitted short-lived predictor sites.
func (db *DB) Predictor() *Predictor {
	return predictorOf(db.Config, db.Table, db.Sites, func(_ SiteKey, st *SiteStats) bool {
		return st.admitted(db.Config.AdmitFraction)
	})
}

// predictorOf collects the sites admit accepts into a Predictor keyed in
// tb: the one admitted-set loop behind every lookup policy (the paper's
// rule, the quantile rule and the windowed rule).
func predictorOf[S any](cfg Config, tb *callchain.Table, sites map[SiteKey]S, admit func(SiteKey, S) bool) *Predictor {
	p := &Predictor{Config: cfg, table: tb, keys: make(map[SiteKey]struct{})}
	for k, st := range sites {
		if admit(k, st) {
			p.keys[k] = struct{}{}
		}
	}
	return p
}

// Predictor is the trained short-lived-site database the allocator
// consults at each allocation (paper §5.1: "the presence of the allocation
// site in the short-lived site database indicates an arena allocation").
type Predictor struct {
	Config Config
	table  *callchain.Table
	keys   map[SiteKey]struct{}
}

// NumSites reports how many predictor sites were admitted.
func (p *Predictor) NumSites() int { return len(p.keys) }

// Table returns the chain table the predictor's keys live in.
func (p *Predictor) Table() *callchain.Table { return p.table }

// AdmitSite implements SiteOracle: the site is one of the admitted
// short-lived predictor sites.
func (p *Predictor) AdmitSite(key SiteKey) bool {
	_, ok := p.keys[key]
	return ok
}

// ProfileConfig implements SiteOracle.
func (p *Predictor) ProfileConfig() Config { return p.Config }

// PredictShort reports whether an allocation with the given raw chain (in
// p's own table) and size is predicted short-lived.
func (p *Predictor) PredictShort(raw callchain.ChainID, size int64) bool {
	return predictVia(p, raw, size)
}

// Mapper binds a SiteOracle to chains interned in another execution's
// table — the paper's cross-run site mapping: transform the chain
// structurally in the foreign table, then re-intern it by function name
// into the oracle's table (callchain.Table.InternFrom). No oracle changes
// once trained, so both steps are memoized: the site chain per raw chain,
// and the mapped site and verdict per (raw chain, rounded size) pair,
// packed into one 64-bit key, so the replay's per-allocation cost is one
// map probe. Rounded sizes that do not fit 32 bits bypass that cache.
// Every site keyed on a cache miss lands in one site set, with its
// verdict, so the distinct sites a run touched are counted at the end.
type Mapper struct {
	o        SiteOracle
	cfg      Config
	from     *callchain.Table
	chains   chainMemo             // raw from-chain -> site chain in o.Table()
	verdicts map[uint64]mappedSite // raw chain<<32 | rounded size -> site and verdict
	sites    map[SiteKey]bool      // every site keyed -> whether o admits it
}

// mappedSite is one cached verdict: the site chain in the oracle's table
// and whether the oracle admits the site.
type mappedSite struct {
	chain callchain.ChainID
	short bool
}

// NewMapper prepares a mapper from chains interned in from onto o.
func NewMapper(o SiteOracle, from *callchain.Table) *Mapper {
	return &Mapper{
		o:        o,
		cfg:      o.ProfileConfig(),
		from:     from,
		verdicts: make(map[uint64]mappedSite),
		sites:    make(map[SiteKey]bool),
	}
}

// NewMapper prepares a mapper from chains interned in from onto p.
func (p *Predictor) NewMapper(from *callchain.Table) *Mapper { return NewMapper(p, from) }

// siteChain maps a raw chain in the foreign table to the site chain
// interned in the oracle's table.
func (m *Mapper) siteChain(raw callchain.ChainID) callchain.ChainID {
	if mapped, ok := m.chains.get(raw); ok {
		return mapped
	}
	mapped := m.o.Table().InternFrom(m.from, m.cfg.siteChain(m.from, raw))
	m.chains.put(raw, mapped)
	return mapped
}

// Site returns the mapped site key (in the oracle's table) and the
// oracle's verdict for one allocation observed in the foreign execution —
// the stable identity a per-site allocator (Hanson-style) routes by.
func (m *Mapper) Site(raw callchain.ChainID, size int64) (SiteKey, bool) {
	rounded := m.cfg.roundSize(size)
	ck, cacheable := uint64(raw)<<32|uint64(rounded), uint64(rounded)>>32 == 0
	if cacheable {
		if v, ok := m.verdicts[ck]; ok {
			return SiteKey{Chain: v.chain, Size: rounded}, v.short
		}
	}
	key := SiteKey{Chain: m.siteChain(raw), Size: rounded}
	short := m.o.AdmitSite(key)
	m.sites[key] = short
	if cacheable {
		m.verdicts[ck] = mappedSite{chain: key.Chain, short: short}
	}
	return key, short
}

// PredictShort implements Oracle for a foreign execution's chains.
func (m *Mapper) PredictShort(raw callchain.ChainID, size int64) bool {
	_, short := m.Site(raw, size)
	return short
}

// ShortThreshold implements Oracle.
func (m *Mapper) ShortThreshold() int64 { return m.cfg.ShortThreshold }

// SitesMatched reports how many distinct admitted sites matched at least
// one allocation — the paper's "Sites Used" under true prediction.
func (m *Mapper) SitesMatched() int {
	n := 0
	for _, short := range m.sites {
		if short {
			n++
		}
	}
	return n
}

// Eval holds the prediction-effectiveness metrics of Tables 4, 5 and 6.
type Eval struct {
	TotalSites   int // distinct sites in the evaluated trace
	SitesUsed    int // predictor sites that matched >= 1 allocation
	TotalObjects int64
	TotalBytes   int64

	ActualShortBytes    int64 // objects that really died before the threshold
	PredictedBytes      int64 // bytes predicted short (correct or not)
	PredictedShortBytes int64 // predicted short AND actually short
	ErrorBytes          int64 // predicted short but actually long

	PredictedRefs int64 // heap refs to predicted-short objects
	TotalRefs     int64
}

// ActualShortPct returns 100 * actual-short / total bytes.
func (e Eval) ActualShortPct() float64 { return pct(e.ActualShortBytes, e.TotalBytes) }

// PredictedShortPct returns 100 * correctly-predicted / total bytes — the
// paper's "Predicted Short-lived Bytes (%)".
func (e Eval) PredictedShortPct() float64 { return pct(e.PredictedShortBytes, e.TotalBytes) }

// ErrorPct returns 100 * error bytes / total bytes.
func (e Eval) ErrorPct() float64 { return pct(e.ErrorBytes, e.TotalBytes) }

// NewRefPct returns 100 * refs-to-predicted / total heap refs — Table 6's
// "New Ref" column.
func (e Eval) NewRefPct() float64 { return pct(e.PredictedRefs, e.TotalRefs) }

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// Evaluate runs the predictor over a trace (self prediction when the trace
// is the training trace, true prediction otherwise — the chains are mapped
// by name either way) and returns the effectiveness metrics.
func Evaluate(tr *trace.Trace, p *Predictor) (Eval, error) {
	objs, err := trace.Annotate(tr)
	if err != nil {
		return Eval{}, err
	}
	return EvaluateObjects(tr.Table, objs, p), nil
}

// EvaluateObjects evaluates pre-annotated objects whose chains live in tb.
// Each object is keyed through the Mapper that also gives its verdict, and
// the Mapper's site set yields both site counts.
func EvaluateObjects(tb *callchain.Table, objs []trace.Object, p *Predictor) Eval {
	m := p.NewMapper(tb)
	ev := score(objs, p.Config.ShortThreshold, func(o *trace.Object) bool {
		return m.PredictShort(o.Chain, o.Size)
	})
	ev.TotalSites = len(m.sites)
	ev.SitesUsed = m.SitesMatched()
	return ev
}

// score is the one scoring loop behind EvaluateObjects and EvaluateCCE:
// predict reports whether an object is predicted short, and an object is
// actually short when it died before threshold. The site counts are left
// to the caller.
func score(objs []trace.Object, threshold int64, predict func(*trace.Object) bool) Eval {
	var ev Eval
	for i := range objs {
		o := &objs[i]
		predicted := predict(o)
		ev.TotalObjects++
		ev.TotalBytes += o.Size
		ev.TotalRefs += o.Refs
		short := o.Lifetime < threshold
		if short {
			ev.ActualShortBytes += o.Size
		}
		if predicted {
			ev.PredictedBytes += o.Size
			ev.PredictedRefs += o.Refs
			if short {
				ev.PredictedShortBytes += o.Size
			} else {
				ev.ErrorBytes += o.Size
			}
		}
	}
	return ev
}

// LifetimeQuantiles returns exact quantiles of the trace's object-lifetime
// distribution at the given probabilities. When byteWeighted is true each
// object is weighted by its size, which is how the paper's Table 3 reads
// ("each column gives the lifetime for which that percentage of bytes is
// alive"); otherwise objects weigh equally.
func LifetimeQuantiles(objs []trace.Object, probs []float64, byteWeighted bool) []float64 {
	type lw struct {
		life int64
		w    int64
	}
	items := make([]lw, len(objs))
	var totalW int64
	for i := range objs {
		w := int64(1)
		if byteWeighted {
			w = objs[i].Size
		}
		items[i] = lw{objs[i].Lifetime, w}
		totalW += w
	}
	sort.Slice(items, func(i, j int) bool { return items[i].life < items[j].life })
	out := make([]float64, len(probs))
	if len(items) == 0 || totalW == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	for pi, p := range probs {
		target := int64(p * float64(totalW))
		var acc int64
		val := items[len(items)-1].life
		for _, it := range items {
			acc += it.w
			if acc >= target {
				val = it.life
				break
			}
		}
		out[pi] = float64(val)
	}
	return out
}

// newTableForPredictor returns the fresh chain table a deserialized
// predictor interns its site chains into.
func newTableForPredictor() *callchain.Table { return callchain.NewTable() }

// TopSizes returns the n most allocation-heavy rounded request sizes in
// the database — the profile a CUSTOMALLOC-style allocator (the paper's
// reference [9]) synthesizes its per-size free lists from.
func (db *DB) TopSizes(n int) []int64 {
	counts := make(map[int64]int64)
	for key, st := range db.Sites {
		counts[key.Size] += st.Objects
	}
	sizes := make([]int64, 0, len(counts))
	for s := range counts {
		sizes = append(sizes, s)
	}
	sort.Slice(sizes, func(i, j int) bool {
		if counts[sizes[i]] != counts[sizes[j]] {
			return counts[sizes[i]] > counts[sizes[j]]
		}
		return sizes[i] < sizes[j]
	})
	if n < len(sizes) {
		sizes = sizes[:n]
	}
	return sizes
}
