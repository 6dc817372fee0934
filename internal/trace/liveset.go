package trace

import "slices"

// LiveSetCap bounds the flat part of a LiveSet: ids below it index a
// slice, ids at or past it go to a map. Generated ids are recycled
// after free, so they stay below the peak live count (at most 51,512 for
// any model at scale 1.0) and never reach the map; ids from outside the
// program (fuzz corpora, hand-built or foreign traces) may be anything,
// and one such id costs at most LiveSetCap slots.
const LiveSetCap = 1 << 16

// LiveSet maps the ids of live objects to per-object state: the one
// live index of every replay, the allocator simulators', the tracker's,
// the cluster's and the lifetime annotators'. An id below LiveSetCap
// indexes a slice that grows to the largest such id seen; any other id
// takes a map. The zero value is an empty set.
type LiveSet[T any] struct {
	slots []liveSlot[T]
	far   map[ObjectID]T
	n     int
}

type liveSlot[T any] struct {
	v  T
	ok bool
}

// Get returns the state stored for id and whether id is in the set.
func (s *LiveSet[T]) Get(id ObjectID) (T, bool) {
	if id < ObjectID(len(s.slots)) {
		return s.slots[id].v, s.slots[id].ok
	}
	v, ok := s.far[id]
	return v, ok
}

// Put stores v for id, replacing any state id already has.
func (s *LiveSet[T]) Put(id ObjectID, v T) {
	if id >= ObjectID(len(s.slots)) && !s.grow(id) {
		if s.far == nil {
			s.far = make(map[ObjectID]T)
		}
		if _, ok := s.far[id]; !ok {
			s.n++
		}
		s.far[id] = v
		return
	}
	sl := &s.slots[id]
	if !sl.ok {
		sl.ok = true
		s.n++
	}
	sl.v = v
}

// grow extends the slice to hold id, at least doubling it, and reports
// false, leaving it as it is, when id is at or past LiveSetCap.
func (s *LiveSet[T]) grow(id ObjectID) bool {
	if id >= LiveSetCap {
		return false
	}
	grown := make([]liveSlot[T], min(max(2*len(s.slots), int(id)+1, 64), LiveSetCap))
	copy(grown, s.slots)
	s.slots = grown
	return true
}

// Delete removes id and returns the state it held: the lookup and the
// removal of every Free path in one step.
func (s *LiveSet[T]) Delete(id ObjectID) (T, bool) {
	if id < ObjectID(len(s.slots)) {
		sl := &s.slots[id]
		v, ok := sl.v, sl.ok
		if ok {
			*sl = liveSlot[T]{} // a dead object's state must not pin memory
			s.n--
		}
		return v, ok
	}
	v, ok := s.far[id]
	if ok {
		delete(s.far, id)
		s.n--
	}
	return v, ok
}

// Len returns the number of ids in the set.
func (s *LiveSet[T]) Len() int { return s.n }

// Walk calls fn on every id in the set in ascending id order, so heap
// walks and end-of-run drains see a fixed order. fn must not change the
// set.
func (s *LiveSet[T]) Walk(fn func(ObjectID, T)) {
	for i := range s.slots {
		if s.slots[i].ok {
			fn(ObjectID(i), s.slots[i].v)
		}
	}
	if len(s.far) == 0 {
		return
	}
	ids := make([]ObjectID, 0, len(s.far))
	for id := range s.far {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		fn(id, s.far[id])
	}
}
