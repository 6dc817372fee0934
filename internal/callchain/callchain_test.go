package callchain

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestFuncInterning(t *testing.T) {
	tb := NewTable()
	a := tb.Func("main")
	b := tb.Func("parse")
	a2 := tb.Func("main")
	if a != a2 {
		t.Fatalf("re-interning main gave %d, want %d", a2, a)
	}
	if a == b {
		t.Fatal("distinct functions share an id")
	}
	if tb.FuncName(a) != "main" || tb.FuncName(b) != "parse" {
		t.Fatal("FuncName round-trip failed")
	}
	if tb.NumFuncs() != 2 {
		t.Fatalf("NumFuncs = %d, want 2", tb.NumFuncs())
	}
}

func TestChainInterning(t *testing.T) {
	tb := NewTable()
	c1 := tb.InternNames("main", "parse", "xmalloc")
	c2 := tb.InternNames("main", "parse", "xmalloc")
	c3 := tb.InternNames("main", "eval", "xmalloc")
	if c1 != c2 {
		t.Fatal("identical chains interned to different ids")
	}
	if c1 == c3 {
		t.Fatal("distinct chains share an id")
	}
	if tb.Len(c1) != 3 {
		t.Fatalf("Len = %d, want 3", tb.Len(c1))
	}
	if tb.String(c1) != "main>parse>xmalloc" {
		t.Fatalf("String = %q", tb.String(c1))
	}
}

func TestEmptyChainIsZero(t *testing.T) {
	tb := NewTable()
	if id := tb.Intern(nil); id != 0 {
		t.Fatalf("empty chain id = %d, want 0", id)
	}
	if tb.Len(0) != 0 {
		t.Fatal("empty chain has nonzero length")
	}
}

func TestChainOrderMatters(t *testing.T) {
	tb := NewTable()
	ab := tb.InternNames("a", "b")
	ba := tb.InternNames("b", "a")
	if ab == ba {
		t.Fatal("a>b and b>a interned to same id")
	}
}

func TestSubChain(t *testing.T) {
	tb := NewTable()
	c := tb.InternNames("main", "run", "parse", "xmalloc")
	cases := []struct {
		n    int
		want string
	}{
		{1, "xmalloc"},
		{2, "parse>xmalloc"},
		{3, "run>parse>xmalloc"},
		{4, "main>run>parse>xmalloc"},
		{7, "main>run>parse>xmalloc"},
		{-1, "main>run>parse>xmalloc"},
	}
	for _, cse := range cases {
		got := tb.String(tb.SubChain(c, cse.n))
		if got != cse.want {
			t.Errorf("SubChain(n=%d) = %q, want %q", cse.n, got, cse.want)
		}
	}
	if tb.SubChain(c, 0) != 0 {
		t.Error("SubChain(0) is not the empty chain")
	}
}

func TestSubChainIdempotentInterning(t *testing.T) {
	tb := NewTable()
	c := tb.InternNames("a", "b", "c")
	s1 := tb.SubChain(c, 2)
	s2 := tb.InternNames("b", "c")
	if s1 != s2 {
		t.Fatal("sub-chain and directly interned chain differ")
	}
}

func TestEliminateRecursionNoCycle(t *testing.T) {
	tb := NewTable()
	c := tb.InternNames("main", "a", "b")
	if got := tb.EliminateRecursion(c); got != c {
		t.Fatalf("cycle-free chain changed: %q", tb.String(got))
	}
}

func TestEliminateRecursionSimpleCycle(t *testing.T) {
	tb := NewTable()
	// main > f > f > f > malloc-caller collapses to main > f > g.
	c := tb.InternNames("main", "f", "f", "f", "g")
	got := tb.String(tb.EliminateRecursion(c))
	if got != "main>f>g" {
		t.Fatalf("EliminateRecursion = %q, want main>f>g", got)
	}
}

func TestEliminateRecursionMutualCycle(t *testing.T) {
	tb := NewTable()
	// a > b > a > b > c: the a..a loop collapses, then b..b.
	c := tb.InternNames("a", "b", "a", "b", "c")
	got := tb.String(tb.EliminateRecursion(c))
	if got != "a>b>c" {
		t.Fatalf("EliminateRecursion = %q, want a>b>c", got)
	}
}

func TestEliminateRecursionInterleaved(t *testing.T) {
	tb := NewTable()
	// main > p > q > p > r: p reappears, dropping p>q, leaving main>p>r.
	c := tb.InternNames("main", "p", "q", "p", "r")
	got := tb.String(tb.EliminateRecursion(c))
	if got != "main>p>r" {
		t.Fatalf("EliminateRecursion = %q, want main>p>r", got)
	}
}

func TestEliminateRecursionResultUnique(t *testing.T) {
	tb := NewTable()
	chains := [][]string{
		{"a", "b", "a", "c", "b", "d"},
		{"x", "x", "x"},
		{"m", "n", "o", "n", "m", "p"},
	}
	for _, names := range chains {
		c := tb.InternNames(names...)
		r := tb.EliminateRecursion(c)
		fs := tb.Funcs(r)
		seen := map[FuncID]bool{}
		for _, f := range fs {
			if seen[f] {
				t.Errorf("chain %v: function repeats after elimination: %q", names, tb.String(r))
			}
			seen[f] = true
		}
		// The innermost function must be preserved.
		orig := tb.Funcs(c)
		if len(fs) == 0 || fs[len(fs)-1] != orig[len(orig)-1] {
			t.Errorf("chain %v: innermost caller lost: %q", names, tb.String(r))
		}
	}
}

func TestHashDistinguishesChains(t *testing.T) {
	tb := NewTable()
	h1 := tb.Hash(tb.InternNames("a", "b"))
	h2 := tb.Hash(tb.InternNames("b", "a"))
	h3 := tb.Hash(tb.InternNames("a", "b"))
	if h1 == h2 {
		t.Fatal("order-swapped chains hash equal")
	}
	if h1 != h3 {
		t.Fatal("equal chains hash differently")
	}
}

func TestEncryptionKeyXORProperties(t *testing.T) {
	tb := NewTable()
	ab := tb.InternNames("a", "b")
	ba := tb.InternNames("b", "a")
	aab := tb.InternNames("a", "a", "b")
	b := tb.InternNames("b")
	tb.AssignEncryptionIDsMinimizing(99, nil, 0)

	// XOR is order-insensitive: a>b and b>a collide by construction.
	if tb.EncryptionKey(ab) != tb.EncryptionKey(ba) {
		t.Fatal("CCE keys should be order-insensitive")
	}
	// Even recursion cancels: a>a>b == b.
	if tb.EncryptionKey(aab) != tb.EncryptionKey(b) {
		t.Fatal("CCE keys should cancel even recursion")
	}
}

func TestEncryptionKeyDeterministicBySeed(t *testing.T) {
	build := func() *Table {
		tb := NewTable()
		tb.InternNames("a", "b", "c")
		return tb
	}
	t1, t2 := build(), build()
	t1.AssignEncryptionIDsMinimizing(7, nil, 0)
	t2.AssignEncryptionIDsMinimizing(7, nil, 0)
	c1 := t1.InternNames("a", "b", "c")
	c2 := t2.InternNames("a", "b", "c")
	if t1.EncryptionKey(c1) != t2.EncryptionKey(c2) {
		t.Fatal("same seed produced different keys")
	}
	t2.AssignEncryptionIDsMinimizing(8, nil, 0)
	if t1.EncryptionKey(c1) == t2.EncryptionKey(c2) {
		t.Log("note: different seeds coincidentally matched (1/65536 chance)")
	}
}

func TestAssignEncryptionIDsMinimizing(t *testing.T) {
	tb := NewTable()
	var chains []ChainID
	// 40 distinct two-function chains over 12 functions: random ids will
	// often collide in a 16-bit space only rarely, so mostly this checks
	// the collision count is not worse than random.
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			chains = append(chains, tb.InternNames(names[i], names[j]))
		}
	}
	left := tb.AssignEncryptionIDsMinimizing(3, chains, 8)
	if left > 2 {
		t.Fatalf("minimizing assignment left %d collisions", left)
	}
}

func TestQuickSubChainSuffix(t *testing.T) {
	tb := NewTable()
	f := func(raw []uint8, n uint8) bool {
		if len(raw) == 0 {
			return true
		}
		fs := make([]FuncID, len(raw))
		for i, v := range raw {
			fs[i] = FuncID(v % 16)
		}
		c := tb.Intern(fs)
		sub := tb.SubChain(c, int(n%10))
		subFs := tb.Funcs(sub)
		// The sub-chain must be a suffix of the original.
		if len(subFs) > len(fs) {
			return false
		}
		off := len(fs) - len(subFs)
		for i, f := range subFs {
			if fs[off+i] != f {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEliminateRecursionTerminatesAndDedups(t *testing.T) {
	tb := NewTable()
	f := func(raw []uint8) bool {
		fs := make([]FuncID, len(raw))
		for i, v := range raw {
			fs[i] = FuncID(v % 8) // force many cycles
		}
		c := tb.Intern(fs)
		r := tb.EliminateRecursion(c)
		out := tb.Funcs(r)
		seen := map[FuncID]bool{}
		for _, f := range out {
			if seen[f] {
				return false
			}
			seen[f] = true
		}
		if len(raw) > 0 && len(out) == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIntern(b *testing.B) {
	tb := NewTable()
	fs := make([]FuncID, 8)
	for i := range fs {
		fs[i] = tb.Func(string(rune('a' + i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs[7] = FuncID(i % 8)
		tb.Intern(fs)
	}
}

// TestInternHitAllocatesNothing: interning a chain the table already
// holds, directly or as a sub-chain, builds its packed key on the stack
// and only reads the table, so it makes no allocation.
func TestInternHitAllocatesNothing(t *testing.T) {
	tb := NewTable()
	c := tb.InternNames("main", "run", "interp", "eval", "apply", "cons", "gc", "xmalloc")
	fs := append([]FuncID(nil), tb.Funcs(c)...)
	sub := tb.SubChain(c, 4)
	n := tb.NumChains()
	if a := testing.AllocsPerRun(100, func() {
		if tb.Intern(fs) != c {
			t.Fatal("Intern of an interned chain returned another id")
		}
	}); a != 0 {
		t.Errorf("Intern of an interned chain: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if tb.SubChain(c, 4) != sub {
			t.Fatal("SubChain of an interned sub-chain returned another id")
		}
	}); a != 0 {
		t.Errorf("SubChain of an interned sub-chain: %v allocs/op, want 0", a)
	}
	if tb.NumChains() != n {
		t.Errorf("lookups grew the table from %d to %d chains", n, tb.NumChains())
	}
}

// TestWarmedTableLookupsConcurrent pins the contract concurrent replays
// and experiment cells rely on when they share a pre-warmed table: once
// the table holds every chain a lookup can derive (the chains, their
// sub-chains, their recursion-eliminated forms and the chains mapped in
// from another table), repeating those lookups only reads it, so
// goroutines may share it. Run it under -race.
func TestWarmedTableLookupsConcurrent(t *testing.T) {
	tb, other := NewTable(), NewTable()
	var chains, foreign []ChainID
	for _, names := range [][]string{
		{"main", "parse", "expr", "expr", "term", "xmalloc"},
		{"main", "eval", "apply", "eval", "apply", "cons", "gc", "xmalloc"},
		{"main", "a", "b", "a", "b", "xmalloc"},
		{"xmalloc"},
		{},
	} {
		chains = append(chains, tb.InternNames(names...))
	}
	for _, names := range [][]string{
		{"main", "eval", "apply", "xmalloc"},
		{"main", "fresh", "fresh", "xmalloc"},
		{"init", "main", "parse"},
	} {
		foreign = append(foreign, other.InternNames(names...))
	}
	lookups := func() {
		for _, c := range chains {
			tb.Intern(tb.Funcs(c))
			for n := 1; n <= 7; n++ {
				tb.SubChain(c, n)
			}
			tb.EliminateRecursion(c)
		}
		for _, c := range foreign {
			tb.InternFrom(other, c)
		}
	}
	lookups()
	nChains, nFuncs := tb.NumChains(), tb.NumFuncs()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				lookups()
			}
		}()
	}
	wg.Wait()
	if tb.NumChains() != nChains || tb.NumFuncs() != nFuncs {
		t.Fatalf("warmed lookups grew the table: %d -> %d chains, %d -> %d funcs",
			nChains, tb.NumChains(), nFuncs, tb.NumFuncs())
	}
}

func BenchmarkEncryptionKey(b *testing.B) {
	tb := NewTable()
	c := tb.InternNames("main", "run", "interp", "eval", "apply", "cons", "xmalloc")
	tb.AssignEncryptionIDsMinimizing(1, nil, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tb.EncryptionKey(c)
	}
}

// TestInternFromMatchesInternNames pins the cross-run chain identity:
// mapping chains into a table with InternFrom leaves it exactly as
// InternNames over the same names would — the same chain ids and the
// same function ids — whether the table starts empty or already holds
// some of the names. Repeating a mapping is a no-op, and a mapped chain
// renders as its source.
func TestInternFromMatchesInternNames(t *testing.T) {
	src := NewTable()
	var chains []ChainID
	for _, names := range [][]string{
		{"main", "parse", "xmalloc"},
		{"main", "eval", "apply", "xmalloc"},
		{"eval", "apply"},
		{"main", "f", "f", "g"},
		{},
		{"leaf", "main"},
	} {
		chains = append(chains, src.InternNames(names...))
	}
	for _, seed := range [][]string{nil, {"xmalloc", "apply", "main"}} {
		viaFrom, viaNames := NewTable(), NewTable()
		viaFrom.InternNames(seed...)
		viaNames.InternNames(seed...)
		for _, c := range chains {
			names := make([]string, src.Len(c))
			for i, f := range src.Funcs(c) {
				names[i] = src.FuncName(f)
			}
			got := viaFrom.InternFrom(src, c)
			if want := viaNames.InternNames(names...); got != want {
				t.Fatalf("seed %v: InternFrom(%q) = %d, InternNames = %d", seed, src.String(c), got, want)
			}
			if viaFrom.String(got) != src.String(c) {
				t.Fatalf("seed %v: mapped chain renders %q, want %q", seed, viaFrom.String(got), src.String(c))
			}
			n := viaFrom.NumChains()
			if again := viaFrom.InternFrom(src, c); again != got || viaFrom.NumChains() != n {
				t.Fatalf("seed %v: repeating InternFrom(%q) gave %d (was %d), %d chains (was %d)",
					seed, src.String(c), again, got, viaFrom.NumChains(), n)
			}
		}
		if viaFrom.NumFuncs() != viaNames.NumFuncs() || viaFrom.NumChains() != viaNames.NumChains() {
			t.Fatalf("seed %v: tables differ in size: %d/%d funcs, %d/%d chains", seed,
				viaFrom.NumFuncs(), viaNames.NumFuncs(), viaFrom.NumChains(), viaNames.NumChains())
		}
		for f := 0; f < viaFrom.NumFuncs(); f++ {
			if a, b := viaFrom.FuncName(FuncID(f)), viaNames.FuncName(FuncID(f)); a != b {
				t.Fatalf("seed %v: function %d is %q via InternFrom, %q via InternNames", seed, f, a, b)
			}
		}
	}
}
