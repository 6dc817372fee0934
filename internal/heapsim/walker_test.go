package heapsim

import (
	"errors"
	"sort"
	"testing"

	"repro/internal/trace"
)

// Every simulator must expose its layout for conformance auditing.
var (
	_ Walker = (*FirstFit)(nil)
	_ Walker = (*BSD)(nil)
	_ Walker = (*SegFit)(nil)
	_ Walker = (*Arena)(nil)
	_ Walker = (*SiteArena)(nil)
	_ Walker = (*Custom)(nil)
)

// walkerWorkload drives an allocator through a mixed alloc/free pattern
// that leaves a fragmented heap: interleaved sizes, a freed middle run,
// and both short-predicted and long-predicted objects.
func walkerWorkload(t *testing.T, a Allocator) {
	t.Helper()
	sizes := []int64{16, 200, 32, 4096, 64, 24, 512, 48, 8192, 96}
	for i, sz := range sizes {
		if err := a.Alloc(trace.ObjectID(i), sz, sz <= 256); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []trace.ObjectID{1, 3, 5, 7} {
		if err := a.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	for i, sz := range []int64{40, 1024, 8} {
		if err := a.Alloc(trace.ObjectID(20+i), sz, true); err != nil {
			t.Fatal(err)
		}
	}
}

// walkerCases builds every registered simulator, giving custom four of
// the workload's sizes as hot sizes. 24 does not divide a 4KB page, so
// each of its slabs ends in a 16-byte tail.
func walkerCases() map[string]func() Allocator {
	cases := make(map[string]func() Allocator, len(Names))
	for _, name := range Names {
		cases[name] = func() Allocator {
			a, _ := New(name, []int64{16, 24, 32, 64})
			return a
		}
	}
	return cases
}

// slabWindows names the slab heap's window in each simulator built on it.
var slabWindows = map[string]string{"bsd": "heap", "segfit": "heap", "custom": "slab"}

// TestWalkerLayout checks the core Walker contract on every simulator:
// regions are disjoint and account for HeapSize(), spans stay inside
// their declared region, spans never overlap, tiled regions have no
// gaps, every slab window is tiled, and the set of live spans matches
// Addr()-visible liveness.
func TestWalkerLayout(t *testing.T) {
	for name, mk := range walkerCases() {
		t.Run(name, func(t *testing.T) {
			a := mk()
			walkerWorkload(t, a)
			w := a.(Walker)

			regions := w.Regions()
			var extent int64
			byName := make(map[string]Region)
			for _, r := range regions {
				if r.End < r.Base {
					t.Fatalf("region %s inverted: [%d,%d)", r.Name, r.Base, r.End)
				}
				if _, dup := byName[r.Name]; dup {
					t.Fatalf("duplicate region %s", r.Name)
				}
				byName[r.Name] = r
				extent += r.End - r.Base
			}
			if extent != a.HeapSize() {
				t.Fatalf("region extents sum to %d, HeapSize() = %d", extent, a.HeapSize())
			}
			if win, ok := slabWindows[name]; ok && !byName[win].Tiled {
				t.Fatalf("slab window %q is not tiled: %+v", win, byName[win])
			}

			perRegion := make(map[string][]Span)
			live := make(map[trace.ObjectID]Span)
			if err := w.Walk(func(s Span) error {
				r, ok := byName[s.Region]
				if !ok {
					t.Fatalf("span in undeclared region %q", s.Region)
				}
				if s.Size <= 0 || s.Addr < r.Base || s.Addr+s.Size > r.End {
					t.Fatalf("span [%d,%d) outside region %s [%d,%d)",
						s.Addr, s.Addr+s.Size, r.Name, r.Base, r.End)
				}
				if !s.Free {
					if _, dup := live[s.Obj]; dup {
						t.Fatalf("object %d walked twice", s.Obj)
					}
					live[s.Obj] = s
				}
				perRegion[s.Region] = append(perRegion[s.Region], s)
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			for rname, spans := range perRegion {
				r := byName[rname]
				sort.Slice(spans, func(i, j int) bool { return spans[i].Addr < spans[j].Addr })
				for i := 1; i < len(spans); i++ {
					prev, cur := spans[i-1], spans[i]
					if prev.Addr+prev.Size > cur.Addr {
						t.Fatalf("%s: spans overlap: [%d,%d) then [%d,%d)",
							rname, prev.Addr, prev.Addr+prev.Size, cur.Addr, cur.Addr+cur.Size)
					}
					if r.Tiled && prev.Addr+prev.Size != cur.Addr {
						t.Fatalf("%s: tiled region has gap between %d and %d",
							rname, prev.Addr+prev.Size, cur.Addr)
					}
					if r.Coalesced && prev.Free && cur.Free {
						t.Fatalf("%s: adjacent free spans at %d and %d in coalesced region",
							rname, prev.Addr, cur.Addr)
					}
				}
				if r.Tiled && len(spans) > 0 {
					if spans[0].Addr != r.Base || spans[len(spans)-1].Addr+spans[len(spans)-1].Size != r.End {
						t.Fatalf("%s: tiled region [%d,%d) not covered: spans [%d,%d)",
							rname, r.Base, r.End, spans[0].Addr,
							spans[len(spans)-1].Addr+spans[len(spans)-1].Size)
					}
				}
			}

			// Addr-visible liveness and the walked live set must agree.
			for id, s := range live {
				addr, ok := a.Addr(id)
				if !ok {
					t.Fatalf("walked object %d not live per Addr", id)
				}
				if addr < s.Addr || addr >= s.Addr+s.Size {
					t.Fatalf("object %d: Addr=%d outside its span [%d,%d)",
						id, addr, s.Addr, s.Addr+s.Size)
				}
				if s.Payload <= 0 {
					t.Fatalf("object %d walked with payload %d", id, s.Payload)
				}
			}
			for _, id := range []trace.ObjectID{0, 2, 4, 6, 8, 9, 20, 21, 22} {
				if _, ok := live[id]; !ok {
					t.Fatalf("live object %d missing from walk", id)
				}
			}
			for _, id := range []trace.ObjectID{1, 3, 5, 7, 99} {
				if _, ok := live[id]; ok {
					t.Fatalf("dead object %d reported live by walk", id)
				}
			}
		})
	}
}

// TestWalkAbortsOnEmitError checks the early-exit contract.
func TestWalkAbortsOnEmitError(t *testing.T) {
	boom := errors.New("boom")
	for name, mk := range walkerCases() {
		t.Run(name, func(t *testing.T) {
			a := mk()
			walkerWorkload(t, a)
			calls := 0
			err := a.(Walker).Walk(func(Span) error {
				calls++
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("want emit error back, got %v", err)
			}
			if calls != 1 {
				t.Fatalf("walk continued after error: %d emits", calls)
			}
		})
	}
}

// TestWalkerEmptyAllocator: a freshly initialized allocator walks to an
// empty (or all-free) layout whose regions still account for HeapSize.
func TestWalkerEmptyAllocator(t *testing.T) {
	for name, mk := range walkerCases() {
		t.Run(name, func(t *testing.T) {
			a := mk()
			w := a.(Walker)
			var extent int64
			for _, r := range w.Regions() {
				extent += r.End - r.Base
			}
			if extent != a.HeapSize() {
				t.Fatalf("region extents %d != HeapSize %d", extent, a.HeapSize())
			}
			if err := w.Walk(func(s Span) error {
				if !s.Free {
					t.Fatalf("empty allocator walked a live span: %+v", s)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
