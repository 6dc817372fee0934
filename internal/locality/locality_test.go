package locality

import (
	"testing"

	"repro/internal/xrand"
)

func TestNewCacheValidation(t *testing.T) {
	cases := []struct {
		total, ways, line int
	}{
		{0, 1, 16}, {1024, 0, 16}, {1024, 1, 0},
		{1024, 1, 24}, // non-power-of-two line
		{3000, 2, 32}, // non-power-of-two sets
		{64, 4, 32},   // sets < 1
	}
	for _, c := range cases {
		if _, err := NewCache(c.total, c.ways, c.line); err == nil {
			t.Errorf("NewCache(%d,%d,%d) accepted bad geometry", c.total, c.ways, c.line)
		}
	}
	if _, err := NewCache(64<<10, 4, 32); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c, _ := NewCache(1<<10, 2, 32)
	if c.Access(100) {
		t.Fatal("cold access hit")
	}
	if !c.Access(100) {
		t.Fatal("warm access missed")
	}
	if !c.Access(96) {
		t.Fatal("same-line access missed")
	}
	if c.Accesses() != 3 || c.Misses() != 1 {
		t.Fatalf("accesses/misses = %d/%d", c.Accesses(), c.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Direct-mapped 2-set cache, 32B lines: addresses 0 and 64 collide.
	c, _ := NewCache(64, 1, 32)
	c.Access(0)
	c.Access(64) // evicts line 0
	if c.Access(0) {
		t.Fatal("evicted line still present")
	}
	// 2-way with the same sets keeps both.
	c2, _ := NewCache(128, 2, 32)
	c2.Access(0)
	c2.Access(128) // same set, second way
	if !c2.Access(0) {
		t.Fatal("2-way cache evicted prematurely")
	}
	// Touch 0 (MRU now 0), insert a third conflicting line: 128 is LRU
	// and must be the victim, while 0 survives.
	c2.Access(256)
	if !c2.Access(0) {
		t.Fatal("MRU line evicted")
	}
	if c2.Access(128) {
		t.Fatal("LRU line survived eviction")
	}
}

func TestSmallFootprintBeatsScattered(t *testing.T) {
	// The paper's locality claim in miniature: the same reference load
	// aimed at a 64KB window misses far less in a 32KB cache than when
	// scattered over 4MB.
	r := xrand.New(9)
	mk := func(span int64) []Ref {
		refs := make([]Ref, 400)
		for i := range refs {
			refs[i] = Ref{
				Addr: r.Range(0, span-256),
				Size: 64,
				Refs: 50,
			}
		}
		return refs
	}
	packed, _ := NewCache(32<<10, 4, 32)
	Replay(mk(64<<10), 0, packed)
	scattered, _ := NewCache(32<<10, 4, 32)
	Replay(mk(4<<20), 0, scattered)
	if packed.MissRate() >= scattered.MissRate() {
		t.Fatalf("packed miss rate %.4f not below scattered %.4f",
			packed.MissRate(), scattered.MissRate())
	}
}

func TestReplayCapPreservesWork(t *testing.T) {
	c, _ := NewCache(1<<10, 1, 16)
	Replay([]Ref{{Addr: 0, Size: 64, Refs: 1000}}, 10, c)
	if c.Accesses() != 10 {
		t.Fatalf("capped replay made %d accesses, want 10", c.Accesses())
	}
	c2, _ := NewCache(1<<10, 1, 16)
	Replay([]Ref{{Addr: 0, Size: 64, Refs: 5}, {Addr: 512, Size: 16, Refs: 0}}, 0, c2)
	if c2.Accesses() != 5 {
		t.Fatalf("uncapped replay made %d accesses, want 5", c2.Accesses())
	}
}

func TestReplayFeedsEveryCacheTheSameStream(t *testing.T) {
	// Replaying a window into two caches at once must leave each exactly
	// as replaying it into that cache alone does.
	r := xrand.New(5)
	window := make([]Ref, 64)
	for i := range window {
		window[i] = Ref{Addr: r.Range(0, 1<<20), Size: r.Range(1, 512), Refs: r.Range(0, 200)}
	}
	both := []*Cache{mustCache(t, 256<<10, 4, 32), newPager(t, 64)}
	Replay(window, 96, both...)
	for i, alone := range []*Cache{mustCache(t, 256<<10, 4, 32), newPager(t, 64)} {
		Replay(window, 96, alone)
		if both[i].Accesses() != alone.Accesses() || both[i].Misses() != alone.Misses() {
			t.Errorf("cache %d: shared replay %d/%d accesses/misses, alone %d/%d",
				i, both[i].Accesses(), both[i].Misses(), alone.Accesses(), alone.Misses())
		}
	}
}

func TestWorkingSet(t *testing.T) {
	refs := []Ref{
		{Addr: 0, Size: 100, Refs: 1},         // page 0
		{Addr: 4096, Size: 10, Refs: 1},       // page 1
		{Addr: 4090, Size: 10, Refs: 1},       // pages 0+1 (straddles)
		{Addr: 20000, Size: 10, Refs: 0},      // unreferenced: ignored
		{Addr: 8192 * 3, Size: 9000, Refs: 1}, // pages 6,7,8
	}
	if got := WorkingSet(refs, 4096); got != 5 {
		t.Fatalf("WorkingSet = %d, want 5", got)
	}
	if got := WorkingSet(nil, 0); got != 0 {
		t.Fatalf("empty WorkingSet = %d", got)
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c, _ := NewCache(64<<10, 4, 32)
	r := xrand.New(1)
	addrs := make([]int64, 1024)
	for i := range addrs {
		addrs[i] = r.Range(0, 1<<20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&1023])
	}
}
