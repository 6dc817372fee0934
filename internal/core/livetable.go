package core

import (
	"math/bits"

	"repro/internal/callchain"
	"repro/internal/trace"
)

// liveObj is what the tracker remembers about a live object between its
// alloc and its free: enough to compute the actual lifetime and attribute
// the prediction back to its site. It is also the live table's slot, 32
// bytes with the id and the used flag.
type liveObj struct {
	id    trace.ObjectID
	size  int64
	born  int64 // clock before the object's own allocation (trace.Object.Birth)
	chain callchain.ChainID
	short bool // predicted short-lived at alloc time
	used  bool // the slot holds an object
}

// liveTableMinSlots is a new live table's first allocation.
const liveTableMinSlots = 64

// liveTable is the tracker's live set, keyed by object id: open
// addressing over a power-of-two slot array with linear probing. The
// home slot is the high bits of a Fibonacci (multiplicative) hash, so
// sequential, strided and shard-tagged ids all spread; deletion shifts
// the rest of the probe run back, so there are no tombstones; the array
// doubles past ¾ full, so memory follows the live count. The zero value
// is an empty table.
type liveTable struct {
	slots []liveObj
	n     int
	shift uint // 64 - log2(len(slots))
}

func (lt *liveTable) home(id trace.ObjectID) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> lt.shift)
}

// put stores an object under id, replacing an entry with the same id.
// The slot is written field by field: copying a whole liveObj in would
// go through a stack temporary whose 8-byte stores a 16-byte reload
// cannot forward, a stall on every allocation.
func (lt *liveTable) put(id trace.ObjectID, size, born int64, chain callchain.ChainID, short bool) {
	if 4*(lt.n+1) > 3*len(lt.slots) {
		lt.grow()
	}
	mask := len(lt.slots) - 1
	i := lt.home(id)
	for lt.slots[i].used && lt.slots[i].id != id {
		i = (i + 1) & mask
	}
	s := &lt.slots[i]
	if !s.used {
		lt.n++
	}
	s.id, s.size, s.born, s.chain, s.short, s.used = id, size, born, chain, short, true
}

// find returns the slot holding id, or -1.
func (lt *liveTable) find(id trace.ObjectID) int {
	if lt.n == 0 {
		return -1
	}
	mask := len(lt.slots) - 1
	for i := lt.home(id); lt.slots[i].used; i = (i + 1) & mask {
		if lt.slots[i].id == id {
			return i
		}
	}
	return -1
}

// remove empties slot i. Backward shift: each later entry of the probe
// run moves into the hole unless that would put it before its home slot.
func (lt *liveTable) remove(i int) {
	mask := len(lt.slots) - 1
	for j := (i + 1) & mask; lt.slots[j].used; j = (j + 1) & mask {
		if (j-lt.home(lt.slots[j].id))&mask >= (j-i)&mask {
			lt.slots[i] = lt.slots[j]
			i = j
		}
	}
	lt.slots[i] = liveObj{}
	lt.n--
}

// drain calls f on every entry in slot order and empties the table.
func (lt *liveTable) drain(f func(*liveObj)) {
	for i := range lt.slots {
		if lt.slots[i].used {
			f(&lt.slots[i])
		}
	}
	*lt = liveTable{}
}

func (lt *liveTable) grow() {
	old := lt.slots
	size := 2 * len(old)
	if size == 0 {
		size = liveTableMinSlots
	}
	lt.slots = make([]liveObj, size)
	lt.shift = uint(64 - bits.TrailingZeros(uint(size)))
	lt.n = 0
	for i := range old {
		if lo := &old[i]; lo.used {
			lt.put(lo.id, lo.size, lo.born, lo.chain, lo.short)
		}
	}
}
