// Package synth generates synthetic allocation traces that stand in for the
// paper's five AE-instrumented C programs (CFRAC, ESPRESSO, GAWK, GHOST,
// PERL). We cannot run 1993 SPARC binaries under Larus' AE tracer, so each
// program is modeled as a set of allocation-site specifications with an
// explicit layered call-graph, per-site size and lifetime distributions,
// reference weights, and separate behaviour under a *training* input and a
// *test* input (for the paper's self- vs true-prediction distinction).
//
// The models in programs.go are calibrated so that the statistics the
// paper's experiments depend on — short-lived byte fractions, site counts,
// the call-chain length at which prediction jumps, self/true divergence,
// misprediction (arena pollution) rates, oversized short-lived objects,
// live-heap volumes — match the published tables. Everything downstream
// consumes only trace events, exactly as the paper's simulator consumed AE
// events, so this substitution preserves the behaviour under study.
package synth

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/callchain"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Input selects which workload input a generation run models.
type Input string

// The two inputs every model defines. Training trains the predictor; Test
// is the (different) input used for true prediction.
const (
	Train Input = "train"
	Test  Input = "test"
)

// SizeKind discriminates size distributions.
type SizeKind uint8

// Size distribution kinds.
const (
	SizeFixed SizeKind = iota + 1
	SizeChoice
	SizeUniformStep
)

// SizeDist describes the request-size distribution of a site spec.
type SizeDist struct {
	Kind    SizeKind
	Value   int64     // SizeFixed
	Choices []int64   // SizeChoice
	Weights []float64 // optional, SizeChoice; nil = uniform
	Lo, Hi  int64     // SizeUniformStep: {Lo, Lo+Step, ..., <=Hi}
	Step    int64

	// TestDelta is added to every sampled size in the Test input. A delta
	// that stays within the same 4-byte rounding class still maps across
	// runs (paper §4: sizes are rounded to a multiple of four bytes when
	// mapping training sites onto test sites); a larger delta breaks the
	// mapping.
	TestDelta int64
}

// Fixed returns a distribution always sampling n.
func Fixed(n int64) SizeDist { return SizeDist{Kind: SizeFixed, Value: n} }

// Choice returns a distribution sampling uniformly from the given sizes.
func Choice(sizes ...int64) SizeDist { return SizeDist{Kind: SizeChoice, Choices: sizes} }

// UniformStep returns a distribution sampling uniformly from
// {lo, lo+step, ...} up to hi inclusive.
func UniformStep(lo, hi, step int64) SizeDist {
	return SizeDist{Kind: SizeUniformStep, Lo: lo, Hi: hi, Step: step}
}

func (d SizeDist) sample(r *xrand.RNG, in Input) int64 {
	var s int64
	switch d.Kind {
	case SizeFixed:
		s = d.Value
	case SizeChoice:
		if d.Weights != nil {
			// Weights are rare; build the cumulative scan inline.
			u := r.Float64()
			sum := 0.0
			for _, w := range d.Weights {
				sum += w
			}
			acc := 0.0
			s = d.Choices[len(d.Choices)-1]
			for i, w := range d.Weights {
				acc += w / sum
				if u < acc {
					s = d.Choices[i]
					break
				}
			}
		} else {
			s = d.Choices[r.Intn(len(d.Choices))]
		}
	case SizeUniformStep:
		n := (d.Hi-d.Lo)/d.Step + 1
		s = d.Lo + d.Step*int64(r.Uint64n(uint64(n)))
	default:
		panic(fmt.Sprintf("synth: bad SizeKind %d", d.Kind))
	}
	if in == Test {
		s += d.TestDelta
	}
	if s < 1 {
		s = 1
	}
	return s
}

// Mean returns the expected sampled size for the given input.
func (d SizeDist) Mean(in Input) float64 {
	var m float64
	switch d.Kind {
	case SizeFixed:
		m = float64(d.Value)
	case SizeChoice:
		if d.Weights != nil {
			sum, acc := 0.0, 0.0
			for i, w := range d.Weights {
				sum += w
				acc += w * float64(d.Choices[i])
			}
			m = acc / sum
		} else {
			acc := 0.0
			for _, c := range d.Choices {
				acc += float64(c)
			}
			m = acc / float64(len(d.Choices))
		}
	case SizeUniformStep:
		m = float64(d.Lo+d.Hi) / 2
	default:
		panic(fmt.Sprintf("synth: bad SizeKind %d", d.Kind))
	}
	if in == Test {
		m += float64(d.TestDelta)
	}
	return m
}

// DistinctSizes reports how many distinct sizes the distribution can
// produce; with the chain this determines how many allocation sites the
// spec contributes (paper §3.2: same chain, different size = different
// site).
func (d SizeDist) DistinctSizes() int {
	switch d.Kind {
	case SizeFixed:
		return 1
	case SizeChoice:
		return len(d.Choices)
	case SizeUniformStep:
		return int((d.Hi-d.Lo)/d.Step + 1)
	default:
		panic(fmt.Sprintf("synth: bad SizeKind %d", d.Kind))
	}
}

// LifeKind discriminates lifetime distributions.
type LifeKind uint8

// Lifetime distribution kinds. All lifetimes are in bytes allocated.
const (
	LifeExp LifeKind = iota + 1
	LifeFixed
	LifeUniform
	LifePareto
	LifeImmortal // never freed: lives to the end of the trace
	LifeMix      // with probability MixP draw from A, else from B
)

// LifeDist describes an object-lifetime distribution in bytes allocated.
type LifeDist struct {
	Kind   LifeKind
	Mean   float64 // LifeExp
	Value  float64 // LifeFixed
	Lo, Hi float64 // LifeUniform
	Alpha  float64 // LifePareto
	Xm     float64 // LifePareto minimum
	Cap    float64 // if > 0, truncate samples above Cap

	MixP float64 // LifeMix: probability of drawing from A
	A, B *LifeDist
}

// ExpLife returns an exponential lifetime distribution with the given mean,
// truncated at cap when cap > 0.
func ExpLife(mean, cap float64) LifeDist { return LifeDist{Kind: LifeExp, Mean: mean, Cap: cap} }

// UniformLife returns a uniform lifetime on [lo, hi].
func UniformLife(lo, hi float64) LifeDist { return LifeDist{Kind: LifeUniform, Lo: lo, Hi: hi} }

// ParetoLife returns a Pareto lifetime with shape alpha and minimum xm,
// truncated at cap when cap > 0.
func ParetoLife(alpha, xm, cap float64) LifeDist {
	return LifeDist{Kind: LifePareto, Alpha: alpha, Xm: xm, Cap: cap}
}

// Immortal returns the distribution of objects that live until program
// exit.
func Immortal() LifeDist { return LifeDist{Kind: LifeImmortal} }

// MixLife draws from a with probability p, otherwise from b.
func MixLife(p float64, a, b LifeDist) LifeDist {
	return LifeDist{Kind: LifeMix, MixP: p, A: &a, B: &b}
}

// immortal is the sentinel lifetime for never-freed objects.
const immortal = math.MaxInt64

// sample returns a lifetime in bytes, or the immortal sentinel.
func (d LifeDist) sample(r *xrand.RNG) int64 {
	var v float64
	switch d.Kind {
	case LifeExp:
		v = r.Exp(d.Mean)
	case LifeFixed:
		v = d.Value
	case LifeUniform:
		v = d.Lo + r.Float64()*(d.Hi-d.Lo)
	case LifePareto:
		v = r.Pareto(d.Alpha, d.Xm)
	case LifeImmortal:
		return immortal
	case LifeMix:
		if r.Bool(d.MixP) {
			return d.A.sample(r)
		}
		return d.B.sample(r)
	default:
		panic(fmt.Sprintf("synth: bad LifeKind %d", d.Kind))
	}
	if d.Cap > 0 && v > d.Cap {
		v = d.Cap
	}
	if v < 1 {
		v = 1
	}
	if v >= float64(immortal) {
		return immortal - 1
	}
	return int64(v)
}

// SiteSpec describes one family of allocation sites: a raw call-chain, a
// size distribution (each distinct size is its own site), lifetime
// behaviour under the training and test inputs, relative volume under each
// input, and reference weights for the locality model.
type SiteSpec struct {
	// Chain is the raw call-chain at the allocation, outermost caller
	// first; the last element directly calls the allocator. Repeated
	// names model recursion (removed only when the predictor uses the
	// complete chain). An element containing '#' marks the variant point.
	Chain []string

	// Variants > 1 replicates the spec, substituting "#" in the marked
	// chain element with the variant number and splitting volume evenly.
	// This is how models reach the paper's per-program site counts.
	Variants int

	Sizes SizeDist

	// Life is the lifetime distribution in the training input. TestLife,
	// when non-nil, replaces it in the test input — this is how models
	// express prediction error (trained-short sites that allocate
	// long-lived objects on other inputs, paper Table 4 "Error Bytes").
	Life     LifeDist
	TestLife *LifeDist

	// ByteFrac is the spec's share of the program's allocation volume
	// (relative weight, need not sum to 1) in the training input.
	// TestByteFrac, when non-zero, replaces it in the test input;
	// TestAbsent removes the spec from the test input entirely (training
	// sites that never map onto the test run). A spec with ByteFrac 0 and
	// TestByteFrac > 0 is new in the test input.
	ByteFrac     float64
	TestByteFrac float64
	TestAbsent   bool

	// RefsPerObject and RefsPerByte model how often the program touches
	// objects from this site, driving Heap Refs % (Table 2) and
	// New Ref % (Table 6).
	RefsPerObject float64
	RefsPerByte   float64

	// PhaseStart and PhaseEnd restrict the site to a window of the run,
	// as fractions of the total allocation volume (0 and 0 mean the whole
	// run). Long-lived program state — fonts, symbol tables — loads in an
	// early phase in real programs, which packs it low in the heap; the
	// first-fit fragmentation the paper measures comes from short-lived
	// churn shattering recurring large-request holes, not from immortal
	// objects landing mid-heap at random times.
	PhaseStart float64
	PhaseEnd   float64
}

// expandedSpec is a SiteSpec after variant expansion, with private RNG.
type expandedSpec struct {
	SiteSpec
	chainID callchain.ChainID
	rng     *xrand.RNG
}

// Model is a synthetic program: metadata matching Tables 1 and 2, plus the
// allocation-site specs.
type Model struct {
	Name        string
	Description string

	SourceLines   int     // Table 1/2 "Source Lines of C" (metadata only)
	TotalObjects  int64   // target object count at Scale 1.0
	TotalBytes    int64   // target byte volume at Scale 1.0
	CallsPerAlloc float64 // function calls per allocation (CCE amortization)
	HeapRefFrac   float64 // fraction of all memory refs that touch the heap

	Sites []SiteSpec
}

// Config controls one generation run.
type Config struct {
	Input Input
	Seed  uint64
	// Scale multiplies the trace's object count; 1.0 reproduces the
	// paper-scale run. Fractions (short-lived %, prediction %) are
	// scale-invariant; absolute live-heap volumes are calibrated at 1.0.
	Scale float64
}

// expand performs variant expansion and chain interning for one input.
func (m *Model) expand(tb *callchain.Table, in Input, master *xrand.RNG) []*expandedSpec {
	var out []*expandedSpec
	for _, s := range m.Sites {
		n := s.Variants
		if n < 1 {
			n = 1
		}
		for v := 0; v < n; v++ {
			sp := s
			if n > 1 {
				sp.ByteFrac = s.ByteFrac / float64(n)
				sp.TestByteFrac = s.TestByteFrac / float64(n)
				chain := make([]string, len(s.Chain))
				for i, el := range s.Chain {
					chain[i] = strings.ReplaceAll(el, "#", fmt.Sprintf("%d", v))
				}
				sp.Chain = chain
			}
			names := sp.Chain
			fs := make([]callchain.FuncID, len(names))
			for i, nm := range names {
				fs[i] = tb.Func(nm)
			}
			es := &expandedSpec{
				SiteSpec: sp,
				chainID:  tb.Intern(fs),
				rng:      master.Split(),
			}
			out = append(out, es)
		}
	}
	_ = in
	return out
}

// byteFrac returns the spec's relative byte weight under the input.
func (s *expandedSpec) byteFrac(in Input) float64 {
	if in == Test {
		if s.TestAbsent {
			return 0
		}
		if s.TestByteFrac > 0 {
			return s.TestByteFrac
		}
	}
	return s.ByteFrac
}

// life returns the lifetime distribution under the input.
func (s *expandedSpec) life(in Input) LifeDist {
	if in == Test && s.TestLife != nil {
		return *s.TestLife
	}
	return s.Life
}

// deathEvent schedules a free at deathTime bytes.
type deathEvent struct {
	deathTime int64
	obj       trace.ObjectID
}

// deathHeap is a min-heap on deathTime. The sift algorithms mirror
// container/heap exactly — same comparison and swap sequences, so
// tie-breaking on equal death times is bit-identical to the boxed
// implementation this replaces — but without the interface{} boxing,
// which cost one heap allocation per scheduled death and made event
// generation O(objects) in allocations.
type deathHeap []deathEvent

// push appends ev and sifts it up (container/heap.Push).
func (h *deathHeap) push(ev deathEvent) {
	*h = append(*h, ev)
	s := *h
	j := len(s) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || s[i].deathTime <= s[j].deathTime {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes and returns the earliest death (container/heap.Pop: swap
// root with last, sift the new root down over the shortened heap).
func (h *deathHeap) pop() deathEvent {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s[j2].deathTime < s[j1].deathTime {
			j = j2
		}
		if s[i].deathTime <= s[j].deathTime {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	ev := s[n]
	*h = s[:n]
	return ev
}

// Generate materializes a full trace for the model under cfg: Collect
// over the streaming Source, so the two yield the same events, chain
// table, and trailer metadata.
func (m *Model) Generate(cfg Config) (*trace.Trace, error) {
	src, err := m.Source(cfg)
	if err != nil {
		return nil, err
	}
	return trace.Collect(src)
}

// TotalSites reports how many distinct allocation sites (chain x size) the
// model defines for the given input — the paper's Table 4 "Total Sites".
func (m *Model) TotalSites(in Input) int {
	n := 0
	for _, s := range m.Sites {
		v := s.Variants
		if v < 1 {
			v = 1
		}
		if in == Test && s.TestAbsent {
			continue
		}
		if in == Train && s.ByteFrac == 0 {
			continue
		}
		n += v * s.Sizes.DistinctSizes()
	}
	return n
}
