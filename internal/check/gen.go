package check

import (
	"fmt"

	"repro/internal/callchain"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// GenConfig shapes the random legal traces the property runner feeds the
// harness.
type GenConfig struct {
	// Events is the target event count per case (default 400).
	Events int
}

// Generated traces draw allocations from genSites call chains, bound
// request sizes by genMaxSize (above the 4KB arena size, so the
// big-object path is exercised) and free a live object instead of
// allocating with probability genFreeFrac, so traces end with survivors
// and the never-freed paths run too.
const (
	genSites    = 8
	genMaxSize  = 8192
	genFreeFrac = 0.45
)

// GenTrace generates a random legal allocation trace from the seed:
// every free names a live object, ids are dense in birth order, sizes
// are skewed small with an occasional arena-overflowing large request.
// The same seed and config always produce the same trace.
func GenTrace(seed uint64, cfg GenConfig) *trace.Trace {
	if cfg.Events <= 0 {
		cfg.Events = 400
	}
	r := xrand.New(seed ^ 0x5bd1e995c0ffee11)
	tb := callchain.NewTable()
	chains := make([]callchain.ChainID, genSites)
	for i := range chains {
		switch i % 3 {
		case 0:
			chains[i] = tb.InternNames("main", fmt.Sprintf("gen_%d", i))
		case 1:
			chains[i] = tb.InternNames("main", "dispatch", fmt.Sprintf("gen_%d", i))
		default:
			chains[i] = tb.InternNames("main", "dispatch", "worker", fmt.Sprintf("gen_%d", i))
		}
	}

	tr := &trace.Trace{
		Program: fmt.Sprintf("gen-%d", seed),
		Input:   "prop",
		Table:   tb,
		Events:  make([]trace.Event, 0, cfg.Events),
	}
	var live []trace.ObjectID
	var next trace.ObjectID
	for len(tr.Events) < cfg.Events {
		if len(live) > 0 && r.Bool(genFreeFrac) {
			i := r.Intn(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			tr.Events = append(tr.Events, trace.Event{Kind: trace.KindFree, Obj: id})
			continue
		}
		size := r.Range(1, 192)
		switch {
		case r.Bool(0.05):
			size = r.Range(genMaxSize/2, genMaxSize) // arena-overflow sized
		case r.Bool(0.25):
			size = r.Range(193, 1024)
		}
		tr.Events = append(tr.Events, trace.Event{
			Kind:  trace.KindAlloc,
			Obj:   next,
			Size:  size,
			Chain: chains[r.Intn(len(chains))],
			Refs:  r.Range(0, 8),
		})
		live = append(live, next)
		next++
	}
	tr.FunctionCalls = int64(len(tr.Events)) * 3
	tr.NonHeapRefs = int64(len(tr.Events))
	return tr
}

// GenPredict returns a deterministic pseudo-predictor for property runs:
// it predicts requests of at most threshold bytes short-lived, which is
// wrong often enough on random traces to exercise arena pollution,
// demotion, and fallback. Its verdicts are scored against the paper's
// 32KB lifetime threshold.
func GenPredict(threshold int64) profile.Oracle { return sizePredict(threshold) }

// sizePredict is GenPredict's oracle: a verdict from the request size
// alone.
type sizePredict int64

// PredictShort implements profile.Oracle.
func (s sizePredict) PredictShort(_ callchain.ChainID, size int64) bool { return size <= int64(s) }

// ShortThreshold implements profile.Oracle.
func (sizePredict) ShortThreshold() int64 { return profile.DefaultConfig().ShortThreshold }
