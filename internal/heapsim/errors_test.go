package heapsim_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/heapsim"
	"repro/internal/trace"
)

// maxRequest is the largest request size every simulator accepts.
const maxRequest = heapsim.MaxRequest

// mustNew builds the named simulator, giving custom the hot sizes.
func mustNew(t *testing.T, name string, hot []int64) heapsim.Allocator {
	t.Helper()
	a, err := heapsim.New(name, hot)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAllocatorErrorPaths pins the shared error surface of every
// simulator: double allocation and unknown free must be rejected with the
// exact heapsim error messages (comparison tooling greps them), and Addr
// must report liveness truthfully for dead and never-alive ids.
func TestAllocatorErrorPaths(t *testing.T) {
	for _, name := range heapsim.Names {
		for _, short := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/short=%v", name, short), func(t *testing.T) {
				a := mustNew(t, name, []int64{16, 64})
				if err := a.Alloc(1, 64, short); err != nil {
					t.Fatal(err)
				}

				err := a.Alloc(1, 32, short)
				want := fmt.Sprintf("heapsim: %s: object 1 allocated while already live", name)
				if err == nil || err.Error() != want {
					t.Fatalf("double alloc: got %v, want %q", err, want)
				}

				// A composite must see an id live in its general heap
				// from every layer: 100 bytes unpredicted goes to the
				// general heap, 16 bytes predicted short (a custom hot
				// size) would not.
				if err := a.Alloc(3, 100, false); err != nil {
					t.Fatal(err)
				}
				err = a.Alloc(3, 16, true)
				want = fmt.Sprintf("heapsim: %s: object 3 allocated while already live", name)
				if err == nil || err.Error() != want {
					t.Fatalf("double alloc across layers: got %v, want %q", err, want)
				}

				err = a.Free(99)
				want = fmt.Sprintf("heapsim: %s: free of unknown object 99", name)
				if err == nil || err.Error() != want {
					t.Fatalf("unknown free: got %v, want %q", err, want)
				}

				if err := a.Alloc(2, 16, short); err != nil {
					t.Fatal(err)
				}
				if err := a.Free(2); err != nil {
					t.Fatal(err)
				}
				err = a.Free(2)
				want = fmt.Sprintf("heapsim: %s: free of unknown object 2", name)
				if err == nil || err.Error() != want {
					t.Fatalf("double free: got %v, want %q", err, want)
				}

				if _, ok := a.Addr(1); !ok {
					t.Fatal("Addr reports live object 1 as dead")
				}
				if _, ok := a.Addr(2); ok {
					t.Fatal("Addr reports freed object 2 as live")
				}
				if _, ok := a.Addr(77); ok {
					t.Fatal("Addr reports never-allocated object 77 as live")
				}

				// Error paths must not corrupt the op counts: three
				// successful allocs, one successful free.
				c := a.Counts()
				if c.Allocs != 3 || c.Frees != 1 {
					t.Fatalf("counts after rejected ops: %+v, want Allocs=3 Frees=1", c)
				}
			})
		}
	}
}

// TestAllocatorRejectsNonPositiveSize: a non-positive request is a trace
// corruption, never a silent no-op.
func TestAllocatorRejectsNonPositiveSize(t *testing.T) {
	for _, name := range heapsim.Names {
		t.Run(name, func(t *testing.T) {
			a := mustNew(t, name, nil)
			for _, sz := range []int64{0, -8} {
				if err := a.Alloc(1, sz, false); err == nil {
					t.Fatalf("size %d accepted", sz)
				}
			}
			if got := a.Counts().Allocs; got != 0 {
				t.Fatalf("rejected allocs counted: %d", got)
			}
		})
	}
}

// TestAllocatorRejectsOversizedRequest: a request above maxRequest (the
// most a fresh heap holds below the arena window) is refused by every
// simulator, on either layer of a composite, and leaves its heap as it
// was.
// Accepted, 2^62 bytes carried each general heap across the arena, custom
// and site-arena windows, and overflowed BSD's power-of-two chunk into a
// negative heap size.
func TestAllocatorRejectsOversizedRequest(t *testing.T) {
	for _, name := range heapsim.Names {
		for _, short := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/short=%v", name, short), func(t *testing.T) {
				a := mustNew(t, name, nil)
				heap := a.HeapSize() // arena's starts at its fixed area
				for i, sz := range []int64{maxRequest + 1, 1 << 62, math.MaxInt64} {
					if err := a.Alloc(trace.ObjectID(i), sz, short); err == nil {
						t.Fatalf("size %d accepted", sz)
					}
					if got := a.HeapSize(); got != heap {
						t.Fatalf("refused size %d moved HeapSize from %d to %d", sz, heap, got)
					}
				}
				if got := a.Counts().Allocs; got != 0 {
					t.Fatalf("refused allocs counted: %d", got)
				}
				if err := a.Alloc(9, maxRequest, short); err != nil {
					t.Fatalf("size %d (the limit) refused: %v", int64(maxRequest), err)
				}
			})
		}
	}
}

// TestGeneralHeapStopsAtItsWindow: a first-fit heap never grows past
// ArenaBase, so a composite's general heap refuses the request that would
// carry it into the arena, slab or site-arena window above it. Requests
// of 2^39 bytes fill the heap until one is refused, with an error naming
// the allocator and without moving the heap or its first-fit counts; the
// windows stay disjoint throughout, and the audit against the accepted
// requests passes after the refusal.
func TestGeneralHeapStopsAtItsWindow(t *testing.T) {
	const size = 1 << 39
	for _, name := range []string{"arena", "custom", "sitearena"} {
		for _, short := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/short=%v", name, short), func(t *testing.T) {
				a := mustNew(t, name, nil)
				led := check.NewLedger(0)
				for id := trace.ObjectID(0); ; id++ {
					if id == 4 {
						t.Fatalf("%d requests of %d bytes accepted", id, size)
					}
					heap, counts := a.HeapSize(), a.Counts()
					err := a.Alloc(id, size, short)
					if err != nil {
						if !strings.Contains(err.Error(), name) {
							t.Errorf("refusal %q does not name %s", err, name)
						}
						if got := a.HeapSize(); got != heap {
							t.Errorf("refusal moved HeapSize from %d to %d", heap, got)
						}
						if c := a.Counts(); c.Allocs != counts.Allocs || c.FFProbes != counts.FFProbes || c.FFExtends != counts.FFExtends {
							t.Errorf("refusal moved the counts from %+v to %+v", counts, c)
						}
						break
					}
					if err := led.Apply(trace.Event{Kind: trace.KindAlloc, Obj: id, Size: size}); err != nil {
						t.Fatal(err)
					}
					rs := a.(heapsim.Walker).Regions()
					for i := range rs {
						for _, r := range rs[i+1:] {
							if rs[i].Base < r.End && r.Base < rs[i].End {
								t.Fatalf("after %d requests, windows %+v and %+v overlap", id+1, rs[i], r)
							}
						}
					}
				}
				if err := check.AuditState(name, a, led); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
