package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child must not replay the parent's upcoming stream.
	p := make([]uint64, 50)
	c := make([]uint64, 50)
	for i := range p {
		p[i] = parent.Uint64()
		c[i] = child.Uint64()
	}
	matches := 0
	for i := range p {
		if p[i] == c[i] {
			matches++
		}
	}
	if matches > 0 {
		t.Fatalf("child replays parent stream: %d matches", matches)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", f)
		}
	}
}

func TestRangeInclusive(t *testing.T) {
	r := New(9)
	sawLo, sawHi := false, false
	for i := 0; i < 10000; i++ {
		v := r.Range(4, 6)
		if v < 4 || v > 6 {
			t.Fatalf("Range(4,6) = %d", v)
		}
		if v == 4 {
			sawLo = true
		}
		if v == 6 {
			sawHi = true
		}
	}
	if !sawLo || !sawHi {
		t.Fatalf("Range(4,6) never hit an endpoint: lo=%v hi=%v", sawLo, sawHi)
	}
}

func TestExpMean(t *testing.T) {
	r := New(13)
	const mean, n = 250.0, 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(mean)
	}
	got := sum / n
	if math.Abs(got-mean) > 0.03*mean {
		t.Fatalf("Exp mean: got %.2f, want ~%.2f", got, mean)
	}
}

func TestParetoMinimumAndTail(t *testing.T) {
	r := New(17)
	const alpha, xm = 1.5, 8.0
	over10x := 0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Pareto(alpha, xm)
		if v < xm {
			t.Fatalf("Pareto below minimum: %g < %g", v, xm)
		}
		if v > 10*xm {
			over10x++
		}
	}
	// P(X > 10 xm) = 10^-alpha ~ 3.16%.
	frac := float64(over10x) / n
	if frac < 0.02 || frac > 0.05 {
		t.Fatalf("Pareto tail mass at 10x: got %.4f, want ~0.0316", frac)
	}
}

func TestWeightedProportions(t *testing.T) {
	r := New(43)
	w := NewWeighted(r, []float64{1, 0, 3})
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[w.Next()]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.8 || ratio > 3.2 {
		t.Fatalf("weighted ratio: got %.2f, want ~3", ratio)
	}
}

func TestWeightedPanics(t *testing.T) {
	cases := [][]float64{nil, {}, {0, 0}, {-1, 2}}
	for _, ws := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWeighted(%v) did not panic", ws)
				}
			}()
			NewWeighted(New(1), ws)
		}()
	}
}

func TestQuickUint64nInRange(t *testing.T) {
	r := New(53)
	f := func(n uint64) bool {
		if n == 0 {
			return true
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRangeInBounds(t *testing.T) {
	r := New(59)
	f := func(a, b int32) bool {
		lo, hi := int64(a), int64(b)
		if hi < lo {
			lo, hi = hi, lo
		}
		v := r.Range(lo, hi)
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exp(100)
	}
}
