package heapsim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/trace"
)

// mustNew builds the named simulator, giving custom the hot sizes.
func mustNew(t *testing.T, name string, hot []int64) Allocator {
	t.Helper()
	a, err := New(name, hot)
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
	for _, name := range Names {
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
	for _, name := range Names {
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

// TestAllocatorRejectsOversizedRequest: a request above maxRequest (2^40
// bytes, where the arena window begins) is refused by every simulator,
// on either layer of a composite, and leaves its heap as it was.
// Accepted, 2^62 bytes carried each general heap across the arena, custom
// and site-arena windows, and overflowed BSD's power-of-two chunk into a
// negative heap size.
func TestAllocatorRejectsOversizedRequest(t *testing.T) {
	for _, name := range Names {
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
