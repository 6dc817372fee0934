package heapsim

import "repro/internal/trace"

// fallback is the first-fit general heap of a composite simulator
// (Arena, SiteArena, Custom), which takes every object the composite
// does not place itself. Embedded in each composite, it also keeps the
// composite's own operation counts, so it supplies the composite's Name
// and Counts.
type fallback struct {
	general FirstFit
	ops     OpCounts
}

// newFallback returns a general heap whose errors name the composite and
// whose metrics stay under "firstfit." so snapshots separate the layers.
func newFallback(name string) fallback {
	return fallback{general: FirstFit{name: name, prefix: "firstfit"}}
}

// Name returns the composite's name.
func (f *fallback) Name() string { return f.general.name }

// admit checks a request before the composite places it in either layer:
// checkSize must accept the size, and the id must be live in neither the
// composite's own layer (placed) nor the general heap.
func (f *fallback) admit(id trace.ObjectID, size int64, placed bool) error {
	if err := checkSize(size); err != nil {
		return err
	}
	if _, live := f.general.live.Get(id); placed || live {
		return errDoubleAlloc(f.general.name, id)
	}
	return nil
}

// alloc places an admitted object in the general heap; spilled marks a
// predicted-short object the composite had no room for.
func (f *fallback) alloc(id trace.ObjectID, size int64, spilled bool) error {
	if err := f.general.place(id, size); err != nil {
		return err
	}
	f.ops.Allocs++
	f.ops.GeneralBytes += size
	if spilled {
		f.ops.ArenaFallbacks++
	}
	return nil
}

// free releases an object from the general heap.
func (f *fallback) free(id trace.ObjectID) error {
	if err := f.general.Free(id); err != nil {
		return err
	}
	f.ops.Frees++
	return nil
}

// Counts implements Allocator: the composite's counts with the general
// heap's first-fit counters merged in.
func (f *fallback) Counts() OpCounts {
	c, g := f.ops, &f.general.ops
	c.FFAllocs, c.FFFrees, c.FFProbes = g.FFAllocs, g.FFFrees, g.FFProbes
	c.FFExtends, c.FFSplits, c.FFCoalesces = g.FFExtends, g.FFSplits, g.FFCoalesces
	return c
}
