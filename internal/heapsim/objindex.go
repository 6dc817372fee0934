package heapsim

import (
	"sort"

	"repro/internal/trace"
)

// objIndex is the allocators' live-object table: ObjectID -> per-object
// state. Trace object ids are small dense integers (generators hand them
// out sequentially from zero), which a Go map squanders — every per-event
// lookup pays hashing and bucket probes, and replay profiles show the map
// accesses dominating the hot loop. objIndex replaces the map with a
// paged array: a spine of fixed-size pages indexed by id high bits, a
// presence bitmap per page, and plain array indexing on the hot path.
//
// Memory stays proportional to the live set, not the total object count:
// a page is allocated when its first id arrives and recycled to a free
// list when its last object dies, so long runs with churning ids touch a
// bounded working set of pages. Ids beyond the spine cap (2^25, far past
// any generated trace's own ids) spill into an ordinary map, keeping the
// index correct for any id. Fuzzed traces reach that path, and so does
// every cluster replay: tenant i >= 1 tags its ids with i<<48
// (cluster.tenantShardBits), so every member allocator keeps those
// tenants' live objects in the map.
type objIndex[T any] struct {
	spine    []*objPage[T]
	pool     []*objPage[T] // empty pages awaiting reuse
	overflow map[trace.ObjectID]T
	n        int
}

const (
	objPageBits = 9
	objPageLen  = 1 << objPageBits
	objPageMask = objPageLen - 1
	// objMaxID caps the spine at 1<<16 pages (512KB of pointers); ids at
	// or above it take the overflow map.
	objMaxID = trace.ObjectID(1) << (objPageBits + 16)
)

type objPage[T any] struct {
	n       int
	present [objPageLen]bool
	vals    [objPageLen]T
}

// get returns the value stored for id.
func (x *objIndex[T]) get(id trace.ObjectID) (T, bool) {
	if id < objMaxID {
		pi := int(id >> objPageBits)
		if pi < len(x.spine) {
			if p := x.spine[pi]; p != nil {
				s := id & objPageMask
				return p.vals[s], p.present[s]
			}
		}
		var zero T
		return zero, false
	}
	v, ok := x.overflow[id]
	return v, ok
}

// put stores v for id, overwriting any existing value.
func (x *objIndex[T]) put(id trace.ObjectID, v T) {
	if id < objMaxID {
		pi := int(id >> objPageBits)
		for len(x.spine) <= pi {
			x.spine = append(x.spine, nil)
		}
		p := x.spine[pi]
		if p == nil {
			if np := len(x.pool); np > 0 {
				p = x.pool[np-1]
				x.pool[np-1] = nil
				x.pool = x.pool[:np-1]
			} else {
				p = new(objPage[T])
			}
			x.spine[pi] = p
		}
		s := id & objPageMask
		if !p.present[s] {
			p.present[s] = true
			p.n++
			x.n++
		}
		p.vals[s] = v
		return
	}
	if x.overflow == nil {
		x.overflow = make(map[trace.ObjectID]T)
	}
	if _, ok := x.overflow[id]; !ok {
		x.n++
	}
	x.overflow[id] = v
}

// del removes id, returning the value it held — lookup and delete in one
// step, which is exactly the shape of every allocator's Free path.
func (x *objIndex[T]) del(id trace.ObjectID) (T, bool) {
	var zero T
	if id < objMaxID {
		pi := int(id >> objPageBits)
		if pi >= len(x.spine) {
			return zero, false
		}
		p := x.spine[pi]
		if p == nil {
			return zero, false
		}
		s := id & objPageMask
		if !p.present[s] {
			return zero, false
		}
		v := p.vals[s]
		p.vals[s] = zero // recycled pages must not pin dead state
		p.present[s] = false
		p.n--
		x.n--
		if p.n == 0 {
			x.spine[pi] = nil
			x.pool = append(x.pool, p)
		}
		return v, true
	}
	v, ok := x.overflow[id]
	if ok {
		delete(x.overflow, id)
		x.n--
	}
	return v, ok
}

// len returns the number of stored objects.
func (x *objIndex[T]) len() int { return x.n }

// forEach visits every stored object in ascending id order — unlike a map
// walk, iteration order is deterministic, so consumers (heap walkers,
// draining scans) need no defensive sorting.
func (x *objIndex[T]) forEach(fn func(id trace.ObjectID, v T)) {
	for pi, p := range x.spine {
		if p == nil {
			continue
		}
		base := trace.ObjectID(pi) << objPageBits
		for s := 0; s < objPageLen; s++ {
			if p.present[s] {
				fn(base+trace.ObjectID(s), p.vals[s])
			}
		}
	}
	if len(x.overflow) > 0 {
		ids := make([]trace.ObjectID, 0, len(x.overflow))
		for id := range x.overflow {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			fn(id, x.overflow[id])
		}
	}
}
