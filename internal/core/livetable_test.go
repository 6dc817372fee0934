package core

import (
	"testing"

	"repro/internal/callchain"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// maxLiveProbe bounds every entry's distance from its home slot in
// TestLiveTableMatchesMap. A hash that ignored the high bits would put
// strided ids on one home slot, at distances up to the entry count.
const maxLiveProbe = 64

// TestLiveTableMatchesMap drives the live table and a Go map through the
// same random puts, replacements and deletions, re-using freed ids, for
// id sets a low-bit hash would pile up: dense, strided by 2^k,
// cluster-tagged and at or above 2^63. After every operation the length
// and the lookups of a present and an absent id must agree with the map,
// and the final drain must yield the map's entries exactly once each.
func TestLiveTableMatchesMap(t *testing.T) {
	gens := []struct {
		name string
		id   func(n uint64) trace.ObjectID
	}{
		{"dense", func(n uint64) trace.ObjectID { return trace.ObjectID(n) }},
		{"stride2^12", func(n uint64) trace.ObjectID { return trace.ObjectID(n << 12) }},
		{"stride2^20", func(n uint64) trace.ObjectID { return trace.ObjectID(n << 20) }},
		{"stride2^32", func(n uint64) trace.ObjectID { return trace.ObjectID(n << 32) }},
		{"stride2^40", func(n uint64) trace.ObjectID { return trace.ObjectID(n << 40) }},
		{"cluster-tagged", func(n uint64) trace.ObjectID { return trace.ObjectID(n%3)<<48 | trace.ObjectID(n/3) }},
		{"high", func(n uint64) trace.ObjectID { return trace.ObjectID(1<<63 | n) }},
	}
	for gi, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			r := xrand.New(uint64(gi) + 1)
			var lt liveTable
			ref := map[trace.ObjectID]liveObj{}
			var present, freed []trace.ObjectID
			next := uint64(0)
			worst := 0
			// Three tides: grow to a few thousand live ids, shrink to a
			// handful, grow again over the freed ids.
			for step, putP := range []float64{0.7, 0.3, 0.7} {
				for op := 0; op < 6000; op++ {
					var id trace.ObjectID
					switch {
					case len(present) > 0 && r.Float64() < 0.05:
						// Replace a live entry's value.
						id = present[r.Intn(len(present))]
						lo := liveObj{id: id, size: r.Range(0, 1<<20), born: int64(op), chain: callchain.ChainID(r.Intn(64)), used: true}
						lt.put(lo.id, lo.size, lo.born, lo.chain, lo.short)
						ref[id] = lo
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
						lo := liveObj{id: id, size: r.Range(0, 1<<20), born: int64(op), chain: callchain.ChainID(r.Intn(64)), short: r.Bool(0.5), used: true}
						lt.put(lo.id, lo.size, lo.born, lo.chain, lo.short)
						ref[id] = lo
						present = append(present, id)
					default:
						k := r.Intn(len(present))
						id = present[k]
						present[k] = present[len(present)-1]
						present = present[:len(present)-1]
						checkLookup(t, &lt, ref, id)
						lt.remove(lt.find(id))
						delete(ref, id)
						freed = append(freed, id)
					}
					if lt.n != len(ref) {
						t.Fatalf("step %d op %d: table holds %d, map %d", step, op, lt.n, len(ref))
					}
					checkLookup(t, &lt, ref, id)
					if len(present) > 0 {
						checkLookup(t, &lt, ref, present[r.Intn(len(present))])
					}
					if len(freed) > 0 {
						checkLookup(t, &lt, ref, freed[r.Intn(len(freed))])
					}
					checkLookup(t, &lt, ref, g.id(next+uint64(r.Intn(100))))
					if op%500 == 0 {
						worst = max(worst, maxProbe(t, &lt))
					}
				}
			}
			worst = max(worst, maxProbe(t, &lt))
			drained := map[trace.ObjectID]int{}
			lt.drain(func(lo *liveObj) {
				drained[lo.id]++
				if *lo != ref[lo.id] {
					t.Errorf("drain yielded %+v, want %+v", lo, ref[lo.id])
				}
			})
			if len(drained) != len(ref) {
				t.Errorf("drain yielded %d ids, map holds %d", len(drained), len(ref))
			}
			for id, n := range drained {
				if n != 1 {
					t.Errorf("drain yielded id %#x %d times", id, n)
				}
			}
			if lt.n != 0 || lt.find(g.id(0)) >= 0 {
				t.Error("table not empty after drain")
			}
			t.Logf("%s: %d ids generated, largest probe distance %d", g.name, next, worst)
		})
	}
}

// checkLookup requires find to agree with the map on id.
func checkLookup(t *testing.T, lt *liveTable, ref map[trace.ObjectID]liveObj, id trace.ObjectID) {
	t.Helper()
	want, ok := ref[id]
	i := lt.find(id)
	if (i >= 0) != ok {
		t.Fatalf("find(%#x) = %d, map has it: %v", id, i, ok)
	}
	if ok && lt.slots[i] != want {
		t.Fatalf("find(%#x) slot = %+v, want %+v", id, lt.slots[i], want)
	}
}

// maxProbe returns the largest distance of an entry from its home slot,
// failing the test past maxLiveProbe or at a load above ¾.
func maxProbe(t *testing.T, lt *liveTable) int {
	t.Helper()
	if 4*lt.n > 3*len(lt.slots) {
		t.Fatalf("%d entries in %d slots: more than 3/4 full", lt.n, len(lt.slots))
	}
	mask := len(lt.slots) - 1
	worst := 0
	for i, lo := range lt.slots {
		if !lo.used {
			continue
		}
		d := (i - lt.home(lo.id)) & mask
		if d >= maxLiveProbe {
			t.Fatalf("id %#x sits %d slots past its home (bound %d, %d entries in %d slots)", lo.id, d, maxLiveProbe, lt.n, len(lt.slots))
		}
		worst = max(worst, d)
	}
	return worst
}
