// Package core glues the substrates into the paper's experimental
// pipeline: generate (or load) an allocation trace, train a lifetime
// predictor on a training input, and evaluate prediction effectiveness and
// allocator performance on a test input. One Experiment method per paper
// table returns structured rows; cmd/lptables and the root benchmarks
// render them next to the paper's published values.
//
// Input conventions (paper §3.1 measures "the largest of the input sets"
// and §4 distinguishes self from true prediction):
//
//   - Self prediction: train and evaluate on the Train input.
//   - True prediction: train on Train, evaluate on Test (a different
//     input, or for PERL a different program).
//   - Simulations (Tables 7-9) use true prediction on the Test input, as
//     the paper does; Table 8's self-prediction column simulates the
//     Train input with its own predictor.
package core

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"

	"repro/internal/callchain"
	"repro/internal/costmodel"
	"repro/internal/heapsim"
	"repro/internal/locality"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale multiplies each model's paper-scale trace volume. 1.0
	// reproduces the full runs; smaller values keep tests fast.
	Scale float64
	// SeedBase derives all generation seeds.
	SeedBase uint64
	// Profile is the predictor configuration (32KB threshold etc.).
	Profile profile.Config
	// Models defaults to synth.All().
	Models []*synth.Model
}

// DefaultConfig returns the paper-faithful configuration at the given
// scale.
func DefaultConfig(scale float64) Config {
	return Config{
		Scale:    scale,
		SeedBase: 1993, // PLDI '93
		Profile:  profile.DefaultConfig(),
		Models:   synth.All(),
	}
}

// GenConfig is the single source of truth for how experiment inputs map
// to generator configs: the Train input uses SeedBase, the Test input
// SeedBase+1000. Build, the streaming MatrixRunner and out-of-package
// replay drivers (the cluster simulator, load harnesses) all derive their
// sources from it, which is what keeps their results byte-identical.
func (c Config) GenConfig(in synth.Input) synth.Config {
	seed := c.SeedBase
	if in == synth.Test {
		seed += 1000
	}
	return synth.Config{Input: in, Seed: seed, Scale: c.Scale}
}

// Artifacts bundles everything derived from one model at one scale; the
// experiments share it so traces are generated and annotated once.
type Artifacts struct {
	Model *synth.Model

	TrainTrace *trace.Trace
	TestTrace  *trace.Trace
	TrainObjs  []trace.Object
	TestObjs   []trace.Object

	// TrainPredictor is trained on the Train input (used for true
	// prediction and the simulations).
	TrainPredictor *profile.Predictor
	// TrainDB is the full site database behind TrainPredictor.
	TrainDB *profile.DB
}

// Build generates and annotates both inputs of a model and trains the
// predictor.
func (c Config) Build(m *synth.Model) (*Artifacts, error) {
	a := &Artifacts{Model: m}
	var err error
	a.TrainTrace, err = m.Generate(c.GenConfig(synth.Train))
	if err != nil {
		return nil, fmt.Errorf("core: generating %s train input: %w", m.Name, err)
	}
	a.TestTrace, err = m.Generate(c.GenConfig(synth.Test))
	if err != nil {
		return nil, fmt.Errorf("core: generating %s test input: %w", m.Name, err)
	}
	a.TrainObjs, err = trace.Annotate(a.TrainTrace)
	if err != nil {
		return nil, fmt.Errorf("core: annotating %s train trace: %w", m.Name, err)
	}
	a.TestObjs, err = trace.Annotate(a.TestTrace)
	if err != nil {
		return nil, fmt.Errorf("core: annotating %s test trace: %w", m.Name, err)
	}
	a.TrainDB = profile.TrainObjects(a.TrainTrace.Table, a.TrainObjs, c.Profile)
	a.TrainPredictor = a.TrainDB.Predictor()
	return a, nil
}

// trainDB returns the Train input's site database under cfg: TrainDB
// itself for the configuration Build trained it under, TrainDB's sites
// under another admission fraction (training never reads it, only
// admission does; 0 means the default, 1), and a fresh training for any
// other. Cells share TrainDB and its sites concurrently; nothing writes
// to them after Build, and every derivation only reads them and the
// pre-warmed chain tables.
func (a *Artifacts) trainDB(cfg profile.Config) *profile.DB {
	if cfg == a.TrainDB.Config {
		return a.TrainDB
	}
	db := *a.TrainDB
	db.Config.AdmitFraction = cfg.AdmitFraction
	if cfg == db.Config && cfg.AdmitFraction != 0 {
		return &db
	}
	return profile.TrainObjects(a.TrainTrace.Table, a.TrainObjs, cfg)
}

// SimResult summarizes one allocator simulation over one trace.
type SimResult struct {
	MaxHeap     int64
	Counts      heapsim.OpCounts
	TotalAllocs int64
	TotalBytes  int64
	// Arena occupancy fractions (Table 7), zero for non-arena runs.
	ArenaAllocPct float64
	ArenaBytePct  float64
	PinnedArenas  int
	// Obs is the observability snapshot (metrics, timeline, events,
	// per-phase counters) when a collector was attached; nil otherwise.
	// Every other field is byte-identical with and without a collector.
	Obs *obs.Snapshot
}

// pickCollector resolves the optional trailing collector argument the
// replay functions accept.
func pickCollector(observers []*obs.Collector) *obs.Collector {
	for _, c := range observers {
		if c != nil {
			return c
		}
	}
	return nil
}

// FinishSim fills a replay's aggregate fields from the allocator's final
// state. Every replay loop ends with it — observed or not, and the
// cluster's per-tenant results over a shared pool — so all of them report
// identical values.
func FinishSim(res *SimResult, alloc heapsim.Allocator) {
	res.MaxHeap = alloc.MaxHeapSize()
	res.Counts = alloc.Counts()
	if res.TotalAllocs > 0 {
		res.ArenaAllocPct = 100 * float64(res.Counts.ArenaAllocs) / float64(res.TotalAllocs)
	}
	if res.TotalBytes > 0 {
		res.ArenaBytePct = 100 * float64(res.Counts.ArenaBytes) / float64(res.TotalBytes)
	}
	if ar, ok := alloc.(interface{ PinnedArenas() int }); ok {
		res.PinnedArenas = ar.PinnedArenas()
	}
}

// occupancyReporter is implemented by arena-style allocators that can
// report their arena-area occupancy for timeline samples.
type occupancyReporter interface {
	ArenaOccupancy() float64
}

// maxObsSites bounds the per-site ranking attached to a snapshot.
const maxObsSites = 50

// liveObj is what the tracker remembers about a live object between its
// alloc and its free: enough to compute the actual lifetime and attribute
// the prediction back to its site.
type liveObj struct {
	size  int64
	born  int64 // clock before the object's own allocation (trace.Object.Birth)
	chain callchain.ChainID
	short bool // predicted short-lived at alloc time
}

// predLifetimeBuckets sizes the log2 actual-lifetime histograms: lifetimes
// are measured in bytes allocated, so 40 buckets cover runs up to a
// terabyte of allocation before the overflow bucket engages.
const predLifetimeBuckets = 40

// Tracker carries the replay-side observability state: the
// bytes-allocated clock, the live set (for live-bytes timelines and for
// scoring each alloc-time prediction against the actual lifetime observed
// at free time), phase boundaries, and the per-site rankings. It exists
// only when a collector is attached, so the nil-collector replay path pays
// a single pointer compare per event. RunSimOracle keeps one per run;
// replay loops outside this package (the cluster steps one per tenant)
// drive it with the same calls, so their snapshots are field for field
// the snapshot a solo replay would produce. A nil *Tracker is valid and
// inert.
//
// One goroutine steps a tracker, so its bookkeeping is plain fields and
// a trace.LiveSet: no atomic add per event. The prediction scores reach the
// collector in batches, published before each timeline sample, each phase
// mark and the end-of-run sample; a live scrape sees pred.* at most one
// sample behind, and every snapshot, phase and sample sees them exact.
type Tracker struct {
	col   *obs.Collector
	alloc heapsim.Allocator
	occ   occupancyReporter // nil for non-arena allocators

	clock       int64
	liveBytes   int64
	liveObjects int64
	live        trace.LiveSet[liveObj]

	nEvents  int // 0 when unknown (streaming)
	seen     int
	quartile int // 25/50/75% phase marks taken so far
	nextMark int // the seen count of the next quartile mark, -1 for none

	// Per-site tallies indexed by ChainID and grown on demand (a
	// TextReader's table grows as it streams). A site is ranked once it
	// has an allocation, a misprediction site once it has a false
	// positive or a false negative.
	siteAllocs []siteAgg
	predSites  []predSiteAgg

	// The confusion-matrix scores and lifetime histogram counts since
	// the last publication ("positive" means predicted short-lived), and
	// the rolling accuracy for timeline samples.
	thr                    int64 // short-lifetime threshold (bytes)
	conf                   [numPredCells]int64
	decidedObjs, rightObjs int64
	decidedBytes           int64
	rightBytes             int64
	lifeShort, lifeLong    lifeHist

	// confCtr are the handles conf is published into, resolved once so
	// every cell — including zero ones — appears in snapshots and bench
	// baselines.
	confCtr [numPredCells]*obs.Counter

	// scan is the opt-in heap-topology scanner (Options.HeapScan); nil
	// when the collector did not request it or the allocator exposes no
	// Walker. Scans run only on timeline samples, never per event.
	scan *heapScanner
}

// The confusion-matrix cells, indexing Tracker.conf and predCellNames.
const (
	tpObjects = iota
	fpObjects
	fnObjects
	tnObjects
	tpBytes
	fpBytes
	fnBytes
	tnBytes
	fpCostBytelife
	numPredCells
)

var predCellNames = [numPredCells]string{
	"pred.tp_objects", "pred.fp_objects", "pred.fn_objects", "pred.tn_objects",
	"pred.tp_bytes", "pred.fp_bytes", "pred.fn_bytes", "pred.tn_bytes",
	"pred.fp_cost_bytelife",
}

// lifeHist counts one pred.lifetime_pred_* histogram's observations since
// the last publication, bucketed exactly as
// obs.Log2Histogram(name, predLifetimeBuckets): negatives clamp to 0 and
// values past the last bucket go to overflow.
type lifeHist struct {
	h              *obs.Histogram
	counts         [predLifetimeBuckets]int64
	over, sum, max int64
}

func (l *lifeHist) observe(v int64) {
	if v < 0 {
		v = 0
	}
	if i := bits.Len64(uint64(v)); i < predLifetimeBuckets {
		l.counts[i]++
	} else {
		l.over++
	}
	l.sum += v
	if v > l.max {
		l.max = v
	}
}

func (l *lifeHist) publish() {
	l.h.Fold(l.counts[:], l.over, l.sum, l.max)
	*l = lifeHist{h: l.h}
}

type siteAgg struct {
	allocs int64
	bytes  int64
}

// predSiteAgg accumulates one site's mispredictions: false positives
// (predicted short, lived long) with their byte-lifetime cost, and false
// negatives (predicted long, died short).
type predSiteAgg struct {
	fpObjects, fpBytes, fpCost int64
	fnObjects, fnBytes         int64
}

// NewTracker attaches the collector to the allocator (when it is
// Observable) and prepares the replay-side state; a nil collector returns
// a nil tracker. nEvents drives the 25/50/75% phase marks (0 when
// unknown). Predictions are scored against the oracle's short-lifetime
// threshold, or the paper's default when oracle is nil.
func NewTracker(col *obs.Collector, alloc heapsim.Allocator, nEvents int, oracle profile.Oracle) *Tracker {
	if col == nil {
		return nil
	}
	thr := profile.DefaultConfig().ShortThreshold
	if oracle != nil {
		thr = oracle.ShortThreshold()
	}
	if o, ok := alloc.(heapsim.Observable); ok {
		o.Observe(col)
	}
	t := &Tracker{
		col:       col,
		alloc:     alloc,
		nEvents:   nEvents,
		nextMark:  -1,
		thr:       thr,
		lifeShort: lifeHist{h: col.Log2Histogram("pred.lifetime_pred_short", predLifetimeBuckets)},
		lifeLong:  lifeHist{h: col.Log2Histogram("pred.lifetime_pred_long", predLifetimeBuckets)},
	}
	if nEvents >= 4 {
		t.nextMark = nEvents / 4
	}
	for i, name := range predCellNames {
		t.confCtr[i] = col.Counter(name)
	}
	col.Gauge("pred.threshold_bytes").Set(thr)
	if occ, ok := alloc.(occupancyReporter); ok {
		t.occ = occ
	}
	if col.HeapScanEnabled() {
		if w, ok := alloc.(heapsim.Walker); ok {
			t.scan = newHeapScanner(col, w)
		}
	}
	return t
}

// Step observes one replayed event after the allocator accepted it.
// short is the prediction the replay loop made for an alloc event; it is
// ignored for frees. Stepping a free of an object the tracker never saw
// is a counted no-op — the cluster relies on this for frees of rejected
// objects and for the real free arriving after an eviction. The nil check
// inlines into the caller, so an untracked replay pays no call.
func (t *Tracker) Step(ev trace.Event, short bool) {
	if t != nil {
		t.step(ev.Kind, ev.Obj, ev.Size, ev.Chain, short)
	}
}

// step is Step over an event's columns, as RunSimOracle reads them from a
// block; size and chain are ignored for frees.
func (t *Tracker) step(kind trace.Kind, obj trace.ObjectID, size int64, chain callchain.ChainID, short bool) {
	switch kind {
	case trace.KindAlloc:
		born := t.clock
		t.clock += size
		t.liveBytes += size
		t.liveObjects++
		t.live.Put(obj, liveObj{size: size, born: born, chain: chain, short: short})
		if int(chain) >= len(t.siteAllocs) {
			t.siteAllocs = growTo(t.siteAllocs, chain)
		}
		ag := &t.siteAllocs[chain]
		ag.allocs++
		ag.bytes += size
		t.col.SetClock(t.clock)
		if t.col.TimelineDue(t.clock) {
			t.sample()
		}
	case trace.KindFree:
		if lo, ok := t.live.Delete(obj); ok {
			t.liveBytes -= lo.size
			t.liveObjects--
			t.score(&lo, t.clock-lo.born)
		}
	}
	t.seen++
	if t.seen == t.nextMark {
		t.markQuartile()
	}
}

// markQuartile takes the next 25/50/75% phase mark.
func (t *Tracker) markQuartile() {
	t.quartile++
	t.markPhase(strconv.Itoa(25*t.quartile) + "%")
	t.nextMark = -1
	if t.quartile < 3 {
		t.nextMark = (t.quartile + 1) * t.nEvents / 4
	}
}

// growTo extends a chain-indexed slice with zero values to hold chain.
func growTo[T any](s []T, chain callchain.ChainID) []T {
	return append(s, make([]T, int(chain)+1-len(s))...)
}

// score resolves one object's alloc-time prediction against its actual
// lifetime (bytes allocated between birth and death, matching
// trace.Annotate), updating the confusion matrix, the lifetime histograms
// split by predicted class, the per-site misprediction attribution, and
// the rolling-accuracy channel.
func (t *Tracker) score(lo *liveObj, lifetime int64) {
	actualShort := lifetime < t.thr
	correct := lo.short == actualShort
	switch {
	case lo.short && actualShort:
		t.conf[tpObjects]++
		t.conf[tpBytes] += lo.size
	case lo.short && !actualShort:
		t.conf[fpObjects]++
		t.conf[fpBytes] += lo.size
		cost := lo.size * (lifetime - t.thr)
		t.conf[fpCostBytelife] += cost
		ps := t.predSite(lo.chain)
		ps.fpObjects++
		ps.fpBytes += lo.size
		ps.fpCost += cost
	case !lo.short && actualShort:
		t.conf[fnObjects]++
		t.conf[fnBytes] += lo.size
		ps := t.predSite(lo.chain)
		ps.fnObjects++
		ps.fnBytes += lo.size
	default:
		t.conf[tnObjects]++
		t.conf[tnBytes] += lo.size
	}
	if lo.short {
		t.lifeShort.observe(lifetime)
	} else {
		t.lifeLong.observe(lifetime)
	}
	t.decidedObjs++
	t.decidedBytes += lo.size
	if correct {
		t.rightObjs++
		t.rightBytes += lo.size
	}
}

func (t *Tracker) predSite(chain callchain.ChainID) *predSiteAgg {
	if int(chain) >= len(t.predSites) {
		t.predSites = growTo(t.predSites, chain)
	}
	return &t.predSites[chain]
}

// publish adds the scores counted since the last publication into the
// collector's pred.* counters and histograms.
func (t *Tracker) publish() {
	for i, v := range t.conf {
		if v != 0 {
			t.confCtr[i].Add(v)
		}
	}
	t.conf = [numPredCells]int64{}
	t.lifeShort.publish()
	t.lifeLong.publish()
}

// markPhase publishes the scores, then snapshots the counters under
// label.
func (t *Tracker) markPhase(label string) {
	t.publish()
	t.col.MarkPhase(label)
}

// sample publishes the scores, then records one timeline point from the
// current replay state.
func (t *Tracker) sample() {
	t.publish()
	s := obs.Sample{
		Clock:              t.clock,
		LiveBytes:          t.liveBytes,
		LiveObjects:        t.liveObjects,
		HeapBytes:          t.alloc.HeapSize(),
		PredDecidedObjects: t.decidedObjs,
		PredCorrectObjects: t.rightObjs,
		PredDecidedBytes:   t.decidedBytes,
		PredCorrectBytes:   t.rightBytes,
	}
	if t.occ != nil {
		s.ArenaOccupancy = t.occ.ArenaOccupancy()
	}
	if t.scan != nil {
		st := t.scan.scan(t.clock)
		s.HeapLivePayload = st.livePayload
		s.HeapHeaderBytes = st.header
		s.HeapInternalFrag = st.internal
		s.HeapExternalFrag = st.external
		s.HeapHoleBytes = st.holes
		s.HeapFreeSpans = st.freeSpans
		s.HeapLargestFreeSpan = st.largestFree
	}
	t.col.RecordSample(s)
}

// Finish scores the never-freed objects (their lifetime extends to the end
// of the run, matching trace.Annotate), takes the end-of-run sample and
// phase mark, ranks the site tables, and freezes the snapshot — nil for a
// nil tracker. The chain table renders site labels.
func (t *Tracker) Finish(program string, tb *callchain.Table) *obs.Snapshot {
	if t == nil {
		return nil
	}
	// Every scoring update is a commutative accumulation (counter adds,
	// histogram observations, per-site sums), so the drain's id order
	// does not show in the result.
	t.live.Walk(func(_ trace.ObjectID, lo liveObj) { t.score(&lo, t.clock-lo.born) })
	t.live = trace.LiveSet[liveObj]{}
	t.sample()
	t.markPhase("end")

	var chains []callchain.ChainID
	for id := range t.siteAllocs {
		if t.siteAllocs[id].allocs > 0 {
			chains = append(chains, callchain.ChainID(id))
		}
	}
	sort.Slice(chains, func(i, j int) bool {
		a, b := &t.siteAllocs[chains[i]], &t.siteAllocs[chains[j]]
		if a.bytes != b.bytes {
			return a.bytes > b.bytes
		}
		return chains[i] < chains[j]
	})
	if len(chains) > maxObsSites {
		chains = chains[:maxObsSites]
	}
	sites := make([]obs.SiteBytes, 0, len(chains))
	for _, id := range chains {
		ag := t.siteAllocs[id]
		sites = append(sites, obs.SiteBytes{Site: tb.String(id), Allocs: ag.allocs, Bytes: ag.bytes})
	}
	t.col.SetSites(sites)
	t.col.SetPredSites(t.rankPredSites(tb))

	snap := t.col.Snapshot()
	snap.Program = program
	if n, ok := t.alloc.(interface{ Name() string }); ok {
		snap.Allocator = n.Name()
	}
	return snap
}

// rankPredSites orders misprediction sites by false-positive cost (the
// fragmentation failure mode), then false-positive bytes, then
// false-negative bytes, chain id as the deterministic tie-break, capped at
// maxObsSites like the allocation ranking.
func (t *Tracker) rankPredSites(tb *callchain.Table) []obs.PredSite {
	var chains []callchain.ChainID
	for id := range t.predSites {
		if ps := &t.predSites[id]; ps.fpObjects+ps.fnObjects > 0 {
			chains = append(chains, callchain.ChainID(id))
		}
	}
	sort.Slice(chains, func(i, j int) bool {
		a, b := &t.predSites[chains[i]], &t.predSites[chains[j]]
		if a.fpCost != b.fpCost {
			return a.fpCost > b.fpCost
		}
		if a.fpBytes != b.fpBytes {
			return a.fpBytes > b.fpBytes
		}
		if a.fnBytes != b.fnBytes {
			return a.fnBytes > b.fnBytes
		}
		return chains[i] < chains[j]
	})
	if len(chains) > maxObsSites {
		chains = chains[:maxObsSites]
	}
	out := make([]obs.PredSite, 0, len(chains))
	for _, id := range chains {
		ps := t.predSites[id]
		out = append(out, obs.PredSite{
			Site:      tb.String(id),
			FPObjects: ps.fpObjects,
			FPBytes:   ps.fpBytes,
			FPCost:    ps.fpCost,
			FNObjects: ps.fnObjects,
			FNBytes:   ps.fnBytes,
		})
	}
	return out
}

// RunSim replays a trace through an allocator. When pred is non-nil its
// site database drives the predictedShort hint (chains are mapped by name,
// so cross-input true prediction works transparently). An optional
// trailing obs.Collector records metrics, a timeline, and structured
// events; with no (or a nil) collector the replay and its SimResult are
// identical to the uninstrumented behaviour.
func RunSim(tr *trace.Trace, alloc heapsim.Allocator, pred *profile.Predictor, observers ...*obs.Collector) (SimResult, error) {
	return RunSimSource(trace.NewSliceSource(tr), alloc, pred, observers...)
}

// RunSimSource replays a streaming event source through an allocator —
// the engine behind RunSim and MatrixRunner.Run. Memory stays bounded by the
// source's own state (for generated or file-backed sources, the live
// object set), never the event count. The SimResult is identical to
// replaying the materialized trace: same events, same table, same
// predictor decisions. When a collector is attached and the source
// implements trace.Counted, the observability snapshot also carries the
// 25/50/75% phase marks; otherwise only the end phase is marked.
func RunSimSource(src trace.Source, alloc heapsim.Allocator, pred *profile.Predictor, observers ...*obs.Collector) (SimResult, error) {
	var oracle profile.Oracle
	if pred != nil {
		oracle = pred.NewMapper(src.Table())
	}
	return RunSimOracle(src, alloc, oracle, observers...)
}

// RunSimOracle is RunSimSource generalized over the prediction policy: any
// profile.Oracle — the paper's mapped site database, a zoo policy bound
// via profile.BindOracle, or nil for no prediction — supplies the
// per-allocation short/long hint and the threshold its accuracy is scored
// against. The oracle must already speak the source's chain table.
//
// A heapsim.SiteArena driven by a *profile.Mapper — what
// profile.BindOracle makes of every site policy — gets per-site routing:
// each predicted-short allocation goes to the pool its mapped site
// names, SiteKey.ID. Any other pairing passes the verdict to Alloc,
// which puts a SiteArena's predicted-short objects on one shared
// pseudo-site.
func RunSimOracle(src trace.Source, alloc heapsim.Allocator, oracle profile.Oracle, observers ...*obs.Collector) (SimResult, error) {
	nEvents := 0
	if c, ok := src.(trace.Counted); ok {
		if n, known := c.EventCount(); known {
			nEvents = n
		}
	}
	ot := NewTracker(pickCollector(observers), alloc, nEvents, oracle)
	sited, _ := alloc.(*heapsim.SiteArena)
	mapper, _ := oracle.(*profile.Mapper)
	if mapper == nil {
		sited = nil
	}
	res := SimResult{}
	// The source hands over up to DefaultBlockLen events per NextBlock
	// call, and the inner loop walks the columns with plain index
	// arithmetic — no interface dispatch, no 40-byte struct copies per
	// event. Event indices in errors stay global (base counts completed
	// blocks), and the tracker still steps per event, so phase marks,
	// timeline cadence, and prediction scoring land on exactly the same
	// events as the event-at-a-time reference replay in internal/check.
	blk := trace.NewEventBlock(trace.DefaultBlockLen)
	for base := 0; ; base += blk.N {
		err := src.NextBlock(blk)
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, err
		}
		n := blk.N
		kinds, objs, sizes, chains := blk.Kinds[:n], blk.Objs[:n], blk.Sizes[:n], blk.Chains[:n]
		for k := 0; k < n; k++ {
			switch kinds[k] {
			case trace.KindAlloc:
				// The loop's own decision is reused for quality tracking;
				// asking the oracle twice would double a mapper's
				// site-usage accounting.
				short := false
				var err error
				if sited != nil {
					var key profile.SiteKey
					if key, short = mapper.Site(chains[k], sizes[k]); short {
						err = sited.AllocAt(objs[k], sizes[k], key.ID())
					} else {
						err = sited.Alloc(objs[k], sizes[k], false)
					}
				} else {
					if oracle != nil {
						short = oracle.PredictShort(chains[k], sizes[k])
					}
					err = alloc.Alloc(objs[k], sizes[k], short)
				}
				if err != nil {
					return res, fmt.Errorf("core: event %d: %w", base+k, err)
				}
				res.TotalAllocs++
				res.TotalBytes += sizes[k]
				if ot != nil {
					ot.step(trace.KindAlloc, objs[k], sizes[k], chains[k], short)
				}
			case trace.KindFree:
				if err := alloc.Free(objs[k]); err != nil {
					return res, fmt.Errorf("core: event %d: %w", base+k, err)
				}
				if ot != nil {
					ot.step(trace.KindFree, objs[k], 0, 0, false)
				}
			default:
				return res, fmt.Errorf("core: event %d: bad kind %d", base+k, kinds[k])
			}
		}
	}
	FinishSim(&res, alloc)
	res.Obs = ot.Finish(src.Meta().Program, src.Table())
	return res, nil
}

// --- Table 2: allocation behaviour ---

// Table2Row reports the Table 2 metrics for one program.
type Table2Row struct {
	Program      string
	SourceLines  int
	TotalBytes   int64
	TotalObjects int64
	MaxBytes     int64
	MaxObjects   int64
	HeapRefPct   float64
}

// Table2 computes per-program allocation statistics on the Train input.
func (c Config) Table2(a *Artifacts) (Table2Row, error) {
	st, err := trace.ComputeStats(a.TrainTrace)
	if err != nil {
		return Table2Row{}, err
	}
	return Table2Row{
		Program:      a.Model.Name,
		SourceLines:  a.Model.SourceLines,
		TotalBytes:   st.TotalBytes,
		TotalObjects: st.TotalObjects,
		MaxBytes:     st.MaxBytes,
		MaxObjects:   st.MaxObjects,
		HeapRefPct:   100 * st.HeapRefFrac,
	}, nil
}

// --- Table 3: lifetime quantiles ---

// Table3Row holds the byte-weighted lifetime quartiles of one program.
type Table3Row struct {
	Program   string
	Quartiles [5]float64 // 0, 25, 50, 75, 100%
}

// Table3 computes the byte-weighted lifetime quartiles on the Train input.
func (c Config) Table3(a *Artifacts) Table3Row {
	q := profile.LifetimeQuantiles(a.TrainObjs, []float64{0, 0.25, 0.5, 0.75, 1}, true)
	var row Table3Row
	row.Program = a.Model.Name
	copy(row.Quartiles[:], q)
	return row
}

// --- Table 4: self and true prediction ---

// Table4Row reports prediction effectiveness for one program.
type Table4Row struct {
	Program        string
	TotalSites     int
	ActualShortPct float64
	SelfSitesUsed  int
	SelfPredPct    float64
	SelfErrorPct   float64
	TrueSitesUsed  int
	TruePredPct    float64
	TrueErrorPct   float64
}

// Table4 evaluates the site+size predictor under self and true prediction.
func (c Config) Table4(a *Artifacts) Table4Row {
	self := profile.EvaluateObjects(a.TrainTrace.Table, a.TrainObjs, a.TrainPredictor)
	tru := profile.EvaluateObjects(a.TestTrace.Table, a.TestObjs, a.TrainPredictor)
	return Table4Row{
		Program:        a.Model.Name,
		TotalSites:     self.TotalSites,
		ActualShortPct: self.ActualShortPct(),
		SelfSitesUsed:  self.SitesUsed,
		SelfPredPct:    self.PredictedShortPct(),
		SelfErrorPct:   self.ErrorPct(),
		TrueSitesUsed:  tru.SitesUsed,
		TruePredPct:    tru.PredictedShortPct(),
		TrueErrorPct:   tru.ErrorPct(),
	}
}

// --- Table 5: size-only prediction ---

// Table5Row reports size-only prediction effectiveness (self prediction).
type Table5Row struct {
	Program        string
	ActualShortPct float64
	PredPct        float64
	SitesUsed      int
}

// Table5 evaluates a predictor keyed by rounded size alone.
func (c Config) Table5(a *Artifacts) Table5Row {
	cfg := c.Profile
	cfg.SizeOnly = true
	ev := profile.EvaluateObjects(a.TrainTrace.Table, a.TrainObjs, a.trainDB(cfg).Predictor())
	return Table5Row{
		Program:        a.Model.Name,
		ActualShortPct: ev.ActualShortPct(),
		PredPct:        ev.PredictedShortPct(),
		SitesUsed:      ev.SitesUsed,
	}
}

// --- Table 6: call-chain length ---

// Table6Row reports, for one program, predicted-short % and New Ref % for
// sub-chain lengths 1..7 and the complete chain (index 7).
type Table6Row struct {
	Program string
	PredPct [8]float64
	NewRef  [8]float64
}

// Table6 sweeps the call-chain length (self prediction).
func (c Config) Table6(a *Artifacts) Table6Row {
	row := Table6Row{Program: a.Model.Name}
	for i := 0; i < 8; i++ {
		cfg := c.Profile
		if i < 7 {
			cfg.ChainLength = i + 1
		} else {
			cfg.ChainLength = 0 // complete chain
		}
		ev := profile.EvaluateObjects(a.TrainTrace.Table, a.TrainObjs, a.trainDB(cfg).Predictor())
		row.PredPct[i] = ev.PredictedShortPct()
		row.NewRef[i] = ev.NewRefPct()
	}
	return row
}

// --- Table 7: arena occupancy under true prediction ---

// Table7Row reports the fraction of objects and bytes placed in arenas.
type Table7Row struct {
	Program       string
	TotalAllocs   int64
	ArenaAllocPct float64
	ArenaBytePct  float64
	TotalBytes    int64
	PinnedArenas  int
}

// Table7 simulates the arena allocator on the Test input with true
// prediction (the paper's configuration: 16 x 4KB arenas).
func (c Config) Table7(a *Artifacts) (Table7Row, error) {
	res, err := RunSim(a.TestTrace, heapsim.NewArena(), a.TrainPredictor)
	if err != nil {
		return Table7Row{}, err
	}
	return Table7Row{
		Program:       a.Model.Name,
		TotalAllocs:   res.TotalAllocs,
		ArenaAllocPct: res.ArenaAllocPct,
		ArenaBytePct:  res.ArenaBytePct,
		TotalBytes:    res.TotalBytes,
		PinnedArenas:  res.PinnedArenas,
	}, nil
}

// --- Table 8: maximum heap sizes ---

// Table8Row compares first-fit and arena heap sizes (KB).
type Table8Row struct {
	Program      string
	FirstFitKB   int64
	SelfArenaKB  int64
	SelfRatioPct float64 // arena/first-fit * 100
	TrueArenaKB  int64
	TrueRatioPct float64
}

// Table8 measures maximum heap sizes on the Test input (the measured
// run): first-fit, the arena allocator under self prediction (a predictor
// trained on the Test input itself), and under true prediction (the Train
// predictor).
func (c Config) Table8(a *Artifacts) (Table8Row, error) {
	ffRes, err := RunSim(a.TestTrace, heapsim.NewFirstFit(), nil)
	if err != nil {
		return Table8Row{}, err
	}
	selfDB := profile.TrainObjects(a.TestTrace.Table, a.TestObjs, c.Profile)
	selfRes, err := RunSim(a.TestTrace, heapsim.NewArena(), selfDB.Predictor())
	if err != nil {
		return Table8Row{}, err
	}
	trueRes, err := RunSim(a.TestTrace, heapsim.NewArena(), a.TrainPredictor)
	if err != nil {
		return Table8Row{}, err
	}
	row := Table8Row{
		Program:     a.Model.Name,
		FirstFitKB:  ffRes.MaxHeap >> 10,
		SelfArenaKB: selfRes.MaxHeap >> 10,
		TrueArenaKB: trueRes.MaxHeap >> 10,
	}
	if row.FirstFitKB > 0 {
		row.SelfRatioPct = 100 * float64(row.SelfArenaKB) / float64(row.FirstFitKB)
		row.TrueRatioPct = 100 * float64(row.TrueArenaKB) / float64(row.FirstFitKB)
	}
	return row, nil
}

// --- Table 9: instructions per operation ---

// Table9Row reports modeled instructions per alloc/free for the four
// allocators (true prediction for the arena columns).
type Table9Row struct {
	Program  string
	BSD      costmodel.PerOp
	FirstFit costmodel.PerOp
	Len4     costmodel.PerOp
	CCE      costmodel.PerOp
}

// Table9 simulates BSD, first-fit, and the arena allocator on the Test
// input and prices them with the instruction cost model.
func (c Config) Table9(a *Artifacts) (Table9Row, error) {
	bsdRes, err := RunSim(a.TestTrace, heapsim.NewBSD(), nil)
	if err != nil {
		return Table9Row{}, err
	}
	ffRes, err := RunSim(a.TestTrace, heapsim.NewFirstFit(), nil)
	if err != nil {
		return Table9Row{}, err
	}
	arRes, err := RunSim(a.TestTrace, heapsim.NewArena(), a.TrainPredictor)
	if err != nil {
		return Table9Row{}, err
	}
	return Table9Row{
		Program:  a.Model.Name,
		BSD:      costmodel.BSD(bsdRes.Counts),
		FirstFit: costmodel.FirstFit(ffRes.Counts),
		Len4:     costmodel.ArenaLen4(arRes.Counts),
		CCE:      costmodel.ArenaCCE(arRes.Counts, a.Model.CallsPerAlloc),
	}, nil
}

// --- Locality extension ---

// LocalityRow quantifies the paper's reference-locality claim with a cache
// simulation: the same reference load replayed against first-fit and
// arena placements.
type LocalityRow struct {
	Program         string
	FirstFitMissPct float64
	ArenaMissPct    float64
	FirstFitPages   int
	ArenaPages      int
	// Page-fault rates under a 64-frame (256KB) LRU resident set — the
	// "page miss rates" half of the paper's locality claim.
	FirstFitFaultPct float64
	ArenaFaultPct    float64
}

// localityWindow is how many consecutively-allocated objects have their
// references interleaved, and refsCap bounds per-object replay work.
const (
	localityWindow  = 64
	localityRefsCap = 96
)

// Locality replays the Test input's references through a 256KB 4-way
// cache under both allocators. The cache is sized above the 64KB arena
// area and below the programs' first-fit heap extents, which is where the
// paper's locality argument bites: short-lived churn that cycles through a
// resident 64KB window hits, churn that next-fit walks across a
// multi-megabyte heap does not.
func (c Config) Locality(a *Artifacts) (LocalityRow, error) {
	row := LocalityRow{Program: a.Model.Name}
	miss, fault, pages, err := replayLocality(a.TestTrace, heapsim.NewFirstFit(), nil)
	if err != nil {
		return row, err
	}
	row.FirstFitMissPct, row.FirstFitFaultPct, row.FirstFitPages = miss, fault, pages
	miss, fault, pages, err = replayLocality(a.TestTrace, heapsim.NewArena(), a.TrainPredictor)
	if err != nil {
		return row, err
	}
	row.ArenaMissPct, row.ArenaFaultPct, row.ArenaPages = miss, fault, pages
	return row, nil
}

func replayLocality(tr *trace.Trace, alloc heapsim.Allocator, pred *profile.Predictor) (missPct, faultPct float64, pages int, err error) {
	cache, err := locality.NewCache(256<<10, 4, 32)
	if err != nil {
		return 0, 0, 0, err
	}
	// The resident set: 64 frames of 4 KB pages in one LRU set.
	pager, err := locality.NewCache(64<<12, 64, 4<<10)
	if err != nil {
		return 0, 0, 0, err
	}
	var mapper *profile.Mapper
	if pred != nil {
		mapper = pred.NewMapper(tr.Table)
	}
	var window []locality.Ref
	var allRefs []locality.Ref
	flush := func() {
		locality.Replay(window, localityRefsCap, cache, pager)
		window = window[:0]
	}
	for i, ev := range tr.Events {
		switch ev.Kind {
		case trace.KindAlloc:
			short := false
			if mapper != nil {
				short = mapper.PredictShort(ev.Chain, ev.Size)
			}
			if err := alloc.Alloc(ev.Obj, ev.Size, short); err != nil {
				return 0, 0, 0, fmt.Errorf("locality replay: event %d: %w", i, err)
			}
			addr, ok := alloc.Addr(ev.Obj)
			if !ok {
				return 0, 0, 0, fmt.Errorf("locality replay: object %d has no address", ev.Obj)
			}
			ref := locality.Ref{Addr: addr, Size: ev.Size, Refs: ev.Refs}
			window = append(window, ref)
			allRefs = append(allRefs, ref)
			if len(window) >= localityWindow {
				flush()
			}
		case trace.KindFree:
			if err := alloc.Free(ev.Obj); err != nil {
				return 0, 0, 0, fmt.Errorf("locality replay: event %d: %w", i, err)
			}
		}
	}
	flush()
	return 100 * cache.MissRate(), 100 * pager.MissRate(),
		locality.WorkingSet(allRefs, 4<<10), nil
}
