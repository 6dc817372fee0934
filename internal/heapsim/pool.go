package heapsim

import (
	"fmt"

	"repro/internal/trace"
)

// PoolStride is the address-space offset between pool members: member i's
// simulated addresses are shifted by i*PoolStride. It sits above every
// single-allocator base (the arena area at 1<<40, the custom pools at
// 1<<41, the site-arena pools at 1<<42), so member windows can never
// collide as long as one simulator's own address space stays under 16TB —
// orders of magnitude beyond any modeled heap.
const PoolStride int64 = 1 << 44

// Pool composes several allocator simulators into one shared address
// space — the arena-pool substrate of the multi-tenant cluster. Placement
// is the caller's decision: AllocOn routes an object to an explicit
// member (the cluster's RoutingPolicy picks which), while the plain
// Allocator interface sends everything to member 0, which makes a
// one-member pool behave exactly like its member — the identity the
// single-tenant metamorphic test pins.
//
// Aggregation over members is exact and deterministic: HeapSize and
// Counts sum, Addr offsets by PoolStride, and MaxHeapSize sums the member
// high-water marks (the simulators never return address space, so their
// per-member maxima coincide in time and the sum equals the true
// pool-wide peak). The pool also tracks per-member live payload bytes,
// the signal the least-fragmented routing policy steers by.
//
// Pool deliberately does not implement Observable: member simulators keep
// their internal metric families to themselves in pooled runs, so a
// pooled replay's snapshot carries exactly the tracker-driven families —
// which is what makes cluster snapshots comparable across pool shapes.
type Pool struct {
	name    string
	members []Allocator
	owner   trace.LiveSet[poolSlot]
	live    []int64 // per-member live payload bytes
}

// poolSlot remembers where a live object went and how big its payload is.
type poolSlot struct {
	member int
	size   int64
}

// NewPool builds a pool over the given members. The name labels the pool
// in snapshots and reports (see Name);
// members must not be shared with any other consumer.
func NewPool(name string, members ...Allocator) (*Pool, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("heapsim: pool needs at least one member")
	}
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("heapsim: pool member %d is nil", i)
		}
	}
	return &Pool{
		name:    name,
		members: members,
		live:    make([]int64, len(members)),
	}, nil
}

// Name returns the pool's label, which pooled snapshots carry as their
// allocator name.
func (p *Pool) Name() string { return p.name }

// Members returns the member count.
func (p *Pool) Members() int { return len(p.members) }

// MemberLive returns the live payload bytes currently placed on member i.
func (p *Pool) MemberLive(i int) int64 { return p.live[i] }

// MemberHeap returns member i's current address-space footprint.
func (p *Pool) MemberHeap(i int) int64 { return p.members[i].HeapSize() }

// Size returns the payload size of a live object and whether the pool
// holds it.
func (p *Pool) Size(id trace.ObjectID) (int64, bool) {
	slot, ok := p.owner.Get(id)
	return slot.size, ok
}

// AllocOn places an object on an explicit member — the routed entry point
// the cluster uses. The id must not be live anywhere in the pool.
func (p *Pool) AllocOn(member int, id trace.ObjectID, size int64, predictedShort bool) error {
	if member < 0 || member >= len(p.members) {
		return fmt.Errorf("heapsim: pool %q: route to member %d of %d", p.name, member, len(p.members))
	}
	if _, dup := p.owner.Get(id); dup {
		return errDoubleAlloc("pool", id)
	}
	if err := p.members[member].Alloc(id, size, predictedShort); err != nil {
		return err
	}
	p.owner.Put(id, poolSlot{member: member, size: size})
	p.live[member] += size
	return nil
}

// Alloc implements Allocator by routing to member 0, making an unrouted
// pool a transparent wrapper around its first member.
func (p *Pool) Alloc(id trace.ObjectID, size int64, predictedShort bool) error {
	return p.AllocOn(0, id, size, predictedShort)
}

// Free releases a live object on whichever member holds it.
func (p *Pool) Free(id trace.ObjectID) error {
	slot, ok := p.owner.Get(id)
	if !ok {
		return errUnknownFree("pool", id)
	}
	if err := p.members[slot.member].Free(id); err != nil {
		return err
	}
	p.owner.Delete(id)
	p.live[slot.member] -= slot.size
	return nil
}

// HeapSize sums the members' current footprints.
func (p *Pool) HeapSize() int64 {
	var total int64
	for _, m := range p.members {
		total += m.HeapSize()
	}
	return total
}

// MaxHeapSize sums the members' high-water marks (see the type comment
// for why that equals the pool-wide peak).
func (p *Pool) MaxHeapSize() int64 {
	var total int64
	for _, m := range p.members {
		total += m.MaxHeapSize()
	}
	return total
}

// Counts sums the members' operation counts field-wise.
func (p *Pool) Counts() OpCounts {
	var t OpCounts
	for _, m := range p.members {
		c := m.Counts()
		t.Allocs += c.Allocs
		t.Frees += c.Frees
		t.FFAllocs += c.FFAllocs
		t.FFFrees += c.FFFrees
		t.FFProbes += c.FFProbes
		t.FFExtends += c.FFExtends
		t.FFSplits += c.FFSplits
		t.FFCoalesces += c.FFCoalesces
		t.BSDCarves += c.BSDCarves
		t.BSDBucketSum += c.BSDBucketSum
		t.SegCarves += c.SegCarves
		t.PredChecks += c.PredChecks
		t.ArenaAllocs += c.ArenaAllocs
		t.ArenaFrees += c.ArenaFrees
		t.ArenaResets += c.ArenaResets
		t.ArenaScanSteps += c.ArenaScanSteps
		t.ArenaFallbacks += c.ArenaFallbacks
		t.ArenaDemotions += c.ArenaDemotions
		t.ArenaBytes += c.ArenaBytes
		t.GeneralBytes += c.GeneralBytes
	}
	return t
}

// Addr reports a live object's pool-wide address: its member address
// shifted into the member's PoolStride window.
func (p *Pool) Addr(id trace.ObjectID) (int64, bool) {
	slot, ok := p.owner.Get(id)
	if !ok {
		return 0, false
	}
	addr, live := p.members[slot.member].Addr(id)
	if !live {
		return 0, false
	}
	return addr + int64(slot.member)*PoolStride, true
}

// PinnedArenas sums the pinned-arena counts of members that report one
// (core's finishSim hook), so a pooled arena run surfaces the same Table 7
// statistic as a bare arena run.
func (p *Pool) PinnedArenas() int {
	total := 0
	for _, m := range p.members {
		if ar, ok := m.(interface{ PinnedArenas() int }); ok {
			total += ar.PinnedArenas()
		}
	}
	return total
}

// ArenaOccupancy reports the mean arena-area occupancy across members
// that track one — exactly the member's own figure for a one-member pool,
// zero when no member has arenas.
func (p *Pool) ArenaOccupancy() float64 {
	var sum float64
	n := 0
	for _, m := range p.members {
		if occ, ok := m.(interface{ ArenaOccupancy() float64 }); ok {
			sum += occ.ArenaOccupancy()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// CheckInvariants runs every member's structural self-check (the
// conformance auditor's hook), plus the pool's own accounting identity:
// per-member live payload sums over the owned objects.
func (p *Pool) CheckInvariants() error {
	for i, m := range p.members {
		if ic, ok := m.(interface{ CheckInvariants() error }); ok {
			if err := ic.CheckInvariants(); err != nil {
				return fmt.Errorf("pool %q member %d: %w", p.name, i, err)
			}
		}
	}
	perMember := make([]int64, len(p.members))
	p.owner.Walk(func(_ trace.ObjectID, slot poolSlot) {
		perMember[slot.member] += slot.size
	})
	for i, want := range perMember {
		if p.live[i] != want {
			return fmt.Errorf("pool %q member %d: live accounting %d, its objects sum to %d",
				p.name, i, p.live[i], want)
		}
	}
	return nil
}

// Regions implements Walker: every walker member's windows, shifted into
// that member's PoolStride slot and name-prefixed "m<i>.". Auditing a
// pool requires every member to be a Walker (all built-in simulators
// are); a non-walker member's windows are absent here and Walk reports
// the mismatch.
func (p *Pool) Regions() []Region {
	var out []Region
	for i, m := range p.members {
		w, ok := m.(Walker)
		if !ok {
			continue
		}
		off := int64(i) * PoolStride
		for _, r := range w.Regions() {
			r.Name = fmt.Sprintf("m%d.%s", i, r.Name)
			r.Base += off
			r.End += off
			out = append(out, r)
		}
	}
	return out
}

// Walk implements Walker, emitting every member's spans shifted like
// Regions shifts the windows.
func (p *Pool) Walk(emit func(Span) error) error {
	for i, m := range p.members {
		w, ok := m.(Walker)
		if !ok {
			return fmt.Errorf("heapsim: pool %q: member %d (%T) is not a Walker", p.name, i, m)
		}
		off := int64(i) * PoolStride
		prefix := fmt.Sprintf("m%d.", i)
		err := w.Walk(func(s Span) error {
			s.Region = prefix + s.Region
			s.Addr += off
			return emit(s)
		})
		if err != nil {
			return err
		}
	}
	return nil
}
