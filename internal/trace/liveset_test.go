package trace

import (
	"testing"

	"repro/internal/xrand"
)

// liveVal is the state TestLiveSetMatchesMap stores per id.
type liveVal struct {
	size  int64
	chain uint32
	short bool
}

// TestLiveSetMatchesMap drives a LiveSet and a Go map through the same
// random puts, replacements and deletions, re-using freed ids, for id
// sets on the slice, on the map and on both sides of LiveSetCap: dense,
// strided by 2^k, three cluster tenants (local×3+shard, with local ids
// strided 1, 2 and 3), ids straddling the cap and ids at or above 2^63.
// After every operation the length and the lookups of a present and an
// absent id must agree with the map, and every walk must visit the map's
// entries once each, in ascending id order.
func TestLiveSetMatchesMap(t *testing.T) {
	gens := []struct {
		name string
		id   func(n uint64) ObjectID
	}{
		{"dense", func(n uint64) ObjectID { return ObjectID(n) }},
		{"stride2^12", func(n uint64) ObjectID { return ObjectID(n << 12) }},
		{"stride2^20", func(n uint64) ObjectID { return ObjectID(n << 20) }},
		{"stride2^32", func(n uint64) ObjectID { return ObjectID(n << 32) }},
		{"stride2^40", func(n uint64) ObjectID { return ObjectID(n << 40) }},
		{"local×3+shard", func(n uint64) ObjectID {
			shard := n % 3
			return ObjectID(n/3*(shard+1)*3 + shard)
		}},
		{"straddle-cap", func(n uint64) ObjectID {
			if n%2 == 0 {
				return LiveSetCap - 1 - ObjectID(n/2)
			}
			return LiveSetCap + ObjectID(n/2)
		}},
		{"high", func(n uint64) ObjectID { return ObjectID(1<<63 | n) }},
	}
	for gi, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			r := xrand.New(uint64(gi) + 1)
			var s LiveSet[liveVal]
			ref := map[ObjectID]liveVal{}
			var present, freed []ObjectID
			next := uint64(0)
			val := func() liveVal {
				return liveVal{size: r.Range(0, 1<<20), chain: uint32(r.Intn(64)), short: r.Bool(0.5)}
			}
			// Three tides: grow to a few thousand live ids, shrink to a
			// handful, grow again over the freed ids.
			for step, putP := range []float64{0.7, 0.3, 0.7} {
				for op := 0; op < 6000; op++ {
					var id ObjectID
					switch {
					case len(present) > 0 && r.Float64() < 0.05:
						// Replace a live entry's value.
						id = present[r.Intn(len(present))]
						v := val()
						s.Put(id, v)
						ref[id] = v
					case len(present) == 0 || r.Float64() < putP:
						if len(freed) > 0 && r.Bool(0.5) {
							k := r.Intn(len(freed))
							id = freed[k]
							freed[k] = freed[len(freed)-1]
							freed = freed[:len(freed)-1]
						} else {
							id = g.id(next)
							next++
						}
						v := val()
						s.Put(id, v)
						ref[id] = v
						present = append(present, id)
					default:
						k := r.Intn(len(present))
						id = present[k]
						present[k] = present[len(present)-1]
						present = present[:len(present)-1]
						got, ok := s.Delete(id)
						if !ok || got != ref[id] {
							t.Fatalf("Delete(%#x) = %+v, %v; want %+v, true", id, got, ok, ref[id])
						}
						delete(ref, id)
						freed = append(freed, id)
						if _, ok := s.Delete(id); ok {
							t.Fatalf("second Delete(%#x) found it", id)
						}
					}
					if s.Len() != len(ref) {
						t.Fatalf("step %d op %d: set holds %d, map %d", step, op, s.Len(), len(ref))
					}
					checkGet(t, &s, ref, id)
					if len(present) > 0 {
						checkGet(t, &s, ref, present[r.Intn(len(present))])
					}
					if len(freed) > 0 {
						checkGet(t, &s, ref, freed[r.Intn(len(freed))])
					}
					checkGet(t, &s, ref, g.id(next+uint64(r.Intn(100))))
					if op%1000 == 0 {
						checkWalk(t, &s, ref)
					}
				}
			}
			checkWalk(t, &s, ref)
			t.Logf("%s: %d ids generated, %d live at the end", g.name, next, len(ref))
		})
	}
}

// checkGet requires Get to agree with the map on id.
func checkGet(t *testing.T, s *LiveSet[liveVal], ref map[ObjectID]liveVal, id ObjectID) {
	t.Helper()
	want, wantOK := ref[id]
	if got, ok := s.Get(id); ok != wantOK || got != want {
		t.Fatalf("Get(%#x) = %+v, %v; want %+v, %v", id, got, ok, want, wantOK)
	}
}

// checkWalk requires a walk to visit exactly the map's entries, in
// strictly ascending id order.
func checkWalk(t *testing.T, s *LiveSet[liveVal], ref map[ObjectID]liveVal) {
	t.Helper()
	n := 0
	var last ObjectID
	s.Walk(func(id ObjectID, v liveVal) {
		if n > 0 && id <= last {
			t.Fatalf("walk visits %#x after %#x", id, last)
		}
		if want, ok := ref[id]; !ok || v != want {
			t.Fatalf("walk visits %#x with %+v; map has %+v, %v", id, v, want, ok)
		}
		last = id
		n++
	})
	if n != len(ref) {
		t.Fatalf("walk visits %d ids, map holds %d", n, len(ref))
	}
}
