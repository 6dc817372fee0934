package locality

import (
	"container/list"
	"testing"

	"repro/internal/xrand"
)

// The locality extension's resident set is a Cache with one fully
// associative set: a way per frame, a line per page. These tests hold it
// to the behaviours of LRU demand paging and, access by access, to a
// reference pager written the direct way.

func mustCache(t *testing.T, total, ways, line int) *Cache {
	t.Helper()
	c, err := NewCache(total, ways, line)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newPager builds an LRU resident set of the given number of 4 KB
// frames: one fully associative set with a way per frame.
func newPager(t *testing.T, frames int) *Cache {
	t.Helper()
	return mustCache(t, frames<<12, frames, 4<<10)
}

// refPager is demand paging with LRU replacement written the direct way,
// a page map plus a recency list: the reference the fully associative
// Cache is held to.
type refPager struct {
	pageSize int64
	frames   int
	order    *list.List              // front = most recently used
	frame    map[int64]*list.Element // page number -> node
}

func newRefPager(frames int, pageSize int64) *refPager {
	return &refPager{pageSize: pageSize, frames: frames, order: list.New(), frame: map[int64]*list.Element{}}
}

// access touches one address; it returns true on a page fault.
func (p *refPager) access(addr int64) bool {
	page := addr / p.pageSize
	if el, ok := p.frame[page]; ok {
		p.order.MoveToFront(el)
		return false
	}
	if p.order.Len() >= p.frames {
		victim := p.order.Back()
		p.order.Remove(victim)
		delete(p.frame, victim.Value.(int64))
	}
	p.frame[page] = p.order.PushFront(page)
	return true
}

func TestPageLRUValidation(t *testing.T) {
	if _, err := NewCache(0, 0, 4096); err == nil {
		t.Error("zero frames accepted")
	}
	if _, err := NewCache(4*4096, 4, 0); err == nil {
		t.Error("zero page size accepted")
	}
	// Any frame count makes one set, a power of two.
	for _, frames := range []int{1, 3, 64} {
		if _, err := NewCache(frames<<12, frames, 4<<10); err != nil {
			t.Errorf("%d frames: %v", frames, err)
		}
	}
}

func TestPageLRUMatchesReference(t *testing.T) {
	// Addresses mix a hot span a few frames wide with a cold span many
	// times the largest resident set, so every size sees hits, cold
	// faults and evictions.
	const accesses = 200_000
	for _, frames := range []int{1, 2, 16, 64} {
		c := newPager(t, frames)
		ref := newRefPager(frames, 4<<10)
		r := xrand.New(uint64(frames))
		faults := int64(0)
		for i := 0; i < accesses; i++ {
			span := int64(8 << 12)
			if r.Range(0, 3) == 0 {
				span = 1024 << 12
			}
			addr := r.Range(0, span)
			want := ref.access(addr)
			if got := !c.Access(addr); got != want {
				t.Fatalf("%d frames: access %d (addr %d): cache fault = %v, reference = %v",
					frames, i, addr, got, want)
			}
			if want {
				faults++
			}
		}
		if c.Misses() != faults || faults == 0 || faults == accesses {
			t.Fatalf("%d frames: %d cache misses, %d reference faults of %d accesses",
				frames, c.Misses(), faults, accesses)
		}
	}
}

func TestPageLRUBasics(t *testing.T) {
	p := newPager(t, 2)
	if p.Access(0) {
		t.Fatal("cold access did not fault")
	}
	if !p.Access(100) {
		t.Fatal("same-page access faulted")
	}
	p.Access(5000)  // page 1, fault
	p.Access(0)     // page 0 still resident (MRU order: 0, 1)
	p.Access(10000) // page 2, evicts LRU = page 1
	if !p.Access(0) {
		t.Fatal("MRU page evicted")
	}
	if p.Access(5000) {
		t.Fatal("evicted LRU page did not fault")
	}
	if p.Accesses() != 7 || p.Misses() != 4 {
		t.Fatalf("accesses/faults = %d/%d, want 7/4", p.Accesses(), p.Misses())
	}
}

func TestPageLRUWorkingSetFits(t *testing.T) {
	// 16 frames of 4KB hold a 64KB arena area exactly: cycling through
	// it faults only on first touch.
	p := newPager(t, 16)
	for round := 0; round < 10; round++ {
		for addr := int64(0); addr < 64<<10; addr += 512 {
			p.Access(addr)
		}
	}
	if p.Misses() != 16 {
		t.Fatalf("faults = %d, want 16 cold faults only", p.Misses())
	}
}

func TestPageLRUThrashing(t *testing.T) {
	// A cyclic sweep over twice the resident set thrashes under LRU.
	p := newPager(t, 16)
	for round := 0; round < 5; round++ {
		for addr := int64(0); addr < 128<<10; addr += 4096 {
			p.Access(addr)
		}
	}
	if p.MissRate() < 0.99 {
		t.Fatalf("cyclic over-capacity sweep should thrash: rate %.2f", p.MissRate())
	}
}

func TestReplayPagedArenaBeatsScattered(t *testing.T) {
	r := xrand.New(3)
	mk := func(span int64) []Ref {
		refs := make([]Ref, 600)
		for i := range refs {
			refs[i] = Ref{Addr: r.Range(0, span-128), Size: 64, Refs: 40}
		}
		return refs
	}
	packed := newPager(t, 32) // 128KB resident
	Replay(mk(64<<10), 0, packed)
	scattered := newPager(t, 32)
	Replay(mk(8<<20), 0, scattered)
	if packed.MissRate() >= scattered.MissRate() {
		t.Fatalf("packed fault rate %.4f not below scattered %.4f",
			packed.MissRate(), scattered.MissRate())
	}
}
