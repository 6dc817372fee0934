// Package xrand provides a small, deterministic pseudo-random number
// generator and the sampling distributions used by the synthetic workload
// models. Every stream is derived from an explicit 64-bit seed so that all
// traces, simulations, and benchmark tables in this repository are exactly
// reproducible.
//
// The generator is xoshiro256** seeded through splitmix64, the combination
// recommended by Blackman and Vigna. It is not cryptographically secure and
// is not meant to be.
package xrand

import "math"

// RNG is a deterministic xoshiro256** pseudo-random number generator.
// The zero value is not usable; construct one with New.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances the state and returns the next value of the
// splitmix64 sequence. It is used only to expand seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns an RNG seeded from seed. Distinct seeds yield independent
// streams for all practical purposes.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// Guard against the (astronomically unlikely) all-zero state, which
	// xoshiro cannot escape.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives an independent child generator from r. The child's stream
// is decorrelated from both r's past and future output, which lets each
// allocation site own a private stream regardless of interleaving.
func (r *RNG) Split() *RNG {
	seed := r.Uint64() ^ 0xd1342543de82ef95
	return New(seed)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Fast path: power of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling to remove modulo bias.
	max := math.MaxUint64 - math.MaxUint64%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Range returns a uniform integer in [lo, hi]. It panics if hi < lo.
func (r *RNG) Range(lo, hi int64) int64 {
	if hi < lo {
		panic("xrand: Range with hi < lo")
	}
	return lo + int64(r.Uint64n(uint64(hi-lo+1)))
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	// Invert the CDF; avoid log(0).
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Pareto returns a Pareto(alpha, xm) distributed value: a heavy-tailed
// distribution with minimum xm. Smaller alpha means heavier tails; for
// alpha <= 1 the mean is infinite.
func (r *RNG) Pareto(alpha, xm float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Weighted selects indices in proportion to fixed non-negative weights.
type Weighted struct {
	cum []float64
	rng *RNG
}

// NewWeighted builds a weighted sampler. It panics if weights is empty, any
// weight is negative, or all weights are zero.
func NewWeighted(rng *RNG, weights []float64) *Weighted {
	if len(weights) == 0 {
		panic("xrand: NewWeighted with no weights")
	}
	cum := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("xrand: NewWeighted with negative or NaN weight")
		}
		sum += w
		cum[i] = sum
	}
	if sum == 0 {
		panic("xrand: NewWeighted with all-zero weights")
	}
	for i := range cum {
		cum[i] /= sum
	}
	return &Weighted{cum: cum, rng: rng}
}

// Next returns an index sampled in proportion to its weight.
func (w *Weighted) Next() int {
	u := w.rng.Float64()
	lo, hi := 0, len(w.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
