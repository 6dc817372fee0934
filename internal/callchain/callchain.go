// Package callchain represents dynamic call-chains — the paper's
// abstraction of the program call-stack at an allocation event — and the
// operations the predictor needs on them:
//
//   - interning, so a chain is a small integer everywhere else;
//   - recursion-cycle elimination (gprof-style, paper §3.2), applied to
//     complete chains;
//   - length-N sub-chains ("the last N callers", paper §3.2);
//   - call-chain encryption (Carter's XOR-of-16-bit-ids scheme, paper §5.1).
//
// A chain is an ordered list of functions, outermost caller first; the last
// element is the function that directly calls the allocator. Chains are
// chains of *functions*, not return addresses, matching the paper ("our
// tools made it easy to use the former").
package callchain

import (
	"encoding/binary"
	"strings"

	"repro/internal/xrand"
)

// FuncID identifies an interned function name.
type FuncID uint32

// ChainID identifies an interned call-chain. The zero ChainID is the empty
// chain.
type ChainID uint32

// Table interns function names and call-chains. It is not safe for
// concurrent use; simulations are single-goroutine by design.
type Table struct {
	funcNames []string
	funcIndex map[string]FuncID

	chains     [][]FuncID
	chainIndex map[string]ChainID

	// cceIDs[f] is the 16-bit encryption id assigned to function f; the
	// slice is grown lazily and filled by AssignEncryptionIDsMinimizing.
	cceIDs []uint16
}

// NewTable returns an empty table with the empty chain pre-interned as
// ChainID 0.
func NewTable() *Table {
	t := &Table{
		funcIndex:  make(map[string]FuncID),
		chainIndex: make(map[string]ChainID),
	}
	t.chains = append(t.chains, nil) // ChainID 0 = empty chain
	t.chainIndex[""] = 0
	return t
}

// Func interns a function name and returns its id.
func (t *Table) Func(name string) FuncID {
	if id, ok := t.funcIndex[name]; ok {
		return id
	}
	id := FuncID(len(t.funcNames))
	t.funcNames = append(t.funcNames, name)
	t.funcIndex[name] = id
	return id
}

// FuncName returns the name for a function id. It panics on an unknown id.
func (t *Table) FuncName(id FuncID) string {
	return t.funcNames[id]
}

// NumFuncs reports how many distinct functions have been interned.
func (t *Table) NumFuncs() int { return len(t.funcNames) }

// NumChains reports how many distinct chains have been interned, including
// the empty chain.
func (t *Table) NumChains() int { return len(t.chains) }

// Intern interns a chain of function ids (outermost first) and returns its
// ChainID. The input slice is copied. The chain's key packs 4 little-endian
// bytes per function id (the empty chain's key is ""), built in a stack
// buffer for chains of up to 16 functions, so interning a known chain
// allocates nothing and only reads the table.
func (t *Table) Intern(fs []FuncID) ChainID {
	var buf [64]byte
	key := buf[:0]
	for _, f := range fs {
		key = binary.LittleEndian.AppendUint32(key, uint32(f))
	}
	if id, ok := t.chainIndex[string(key)]; ok {
		return id
	}
	id := ChainID(len(t.chains))
	t.chains = append(t.chains, append([]FuncID(nil), fs...))
	t.chainIndex[string(key)] = id
	return id
}

// InternNames interns a chain given as function names, outermost first.
func (t *Table) InternNames(chain ...string) ChainID {
	fs := make([]FuncID, len(chain))
	for i, n := range chain {
		fs[i] = t.Func(n)
	}
	return t.Intern(fs)
}

// InternFrom interns chain id of table from into t by function name —
// the paper's cross-run site identity (§4, true prediction). It interns
// the names in chain order, exactly as InternNames over them would, so
// the returned id is the one InternNames assigns.
func (t *Table) InternFrom(from *Table, id ChainID) ChainID {
	src := from.chains[id]
	fs := make([]FuncID, len(src))
	for i, f := range src {
		fs[i] = t.Func(from.funcNames[f])
	}
	return t.Intern(fs)
}

// Funcs returns the function ids of a chain, outermost first. The returned
// slice must not be modified.
func (t *Table) Funcs(id ChainID) []FuncID { return t.chains[id] }

// Len returns the number of functions in a chain.
func (t *Table) Len(id ChainID) int { return len(t.chains[id]) }

// String renders a chain as "main>parse>xmalloc".
func (t *Table) String(id ChainID) string {
	fs := t.chains[id]
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = t.funcNames[f]
	}
	return strings.Join(names, ">")
}

// SubChain returns the chain holding only the last n callers of id (the
// innermost n functions). If n is zero it returns the empty chain; if n
// meets or exceeds the chain length the original id is returned. A negative
// n means "complete chain" and also returns id.
//
// Per the paper's note under Table 6, sub-chains do NOT undergo recursion
// elimination; only complete chains do (see EliminateRecursion). This is
// why the infinity row of Table 6 can predict less than the length-7 row.
func (t *Table) SubChain(id ChainID, n int) ChainID {
	fs := t.chains[id]
	if n < 0 || n >= len(fs) {
		return id
	}
	if n == 0 {
		return 0
	}
	return t.Intern(fs[len(fs)-n:])
}

// EliminateRecursion returns the chain with recursive loops removed: when a
// function reappears, everything from (and including) its previous
// occurrence up to (but excluding) the repeat is dropped, collapsing the
// cycle to a single occurrence. The result contains each function at most
// once. This is the gprof-style cycle collapsing the paper applies to
// complete chains.
func (t *Table) EliminateRecursion(id ChainID) ChainID {
	fs := t.chains[id]
	// Fast path: no duplicates.
	seen := make(map[FuncID]bool, len(fs))
	dup := false
	for _, f := range fs {
		if seen[f] {
			dup = true
			break
		}
		seen[f] = true
	}
	if !dup {
		return id
	}
	out := make([]FuncID, 0, len(fs))
	pos := make(map[FuncID]int, len(fs))
	for _, f := range fs {
		if p, ok := pos[f]; ok {
			// Unwind the cycle: drop out[p:], then re-push f.
			for _, g := range out[p:] {
				delete(pos, g)
			}
			out = out[:p]
		}
		pos[f] = len(out)
		out = append(out, f)
	}
	return t.Intern(out)
}

// Hash returns a 64-bit FNV-1a hash of the chain's function ids. Combined
// with the (rounded) object size this forms the allocation-site key used by
// the predictor database.
func (t *Table) Hash(id ChainID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, f := range t.chains[id] {
		v := uint32(f)
		for i := 0; i < 4; i++ {
			h ^= uint64(byte(v))
			h *= prime64
			v >>= 8
		}
	}
	return h
}

// AssignEncryptionIDsMinimizing assigns a pseudo-random 16-bit id to
// every function interned so far, seeding Carter's call-chain encryption,
// drawn deterministically from seed. It then re-draws ids greedily so
// that the encryption keys of the given chains collide as little as
// possible: function by function, up to tries re-draws each, keeping any
// that removes a key collision among the chains. This models the paper's
// "static call-graph analysis may be used to determine the best ids". It
// returns the number of colliding chain pairs remaining; with no chains
// or no tries the ids are the seed's plain draws.
func (t *Table) AssignEncryptionIDsMinimizing(seed uint64, chains []ChainID, tries int) int {
	r := xrand.New(seed)
	t.cceIDs = make([]uint16, len(t.funcNames))
	for i := range t.cceIDs {
		t.cceIDs[i] = uint16(r.Uint64())
	}
	collisions := func() int {
		keys := make(map[uint16][]ChainID)
		for _, c := range chains {
			k := t.EncryptionKey(c)
			keys[k] = append(keys[k], c)
		}
		n := 0
		for _, cs := range keys {
			// Count distinct chains sharing a key.
			if len(cs) > 1 {
				n += len(cs) - 1
			}
		}
		return n
	}
	best := collisions()
	for f := 0; f < len(t.cceIDs) && best > 0; f++ {
		saved := t.cceIDs[f]
		for try := 0; try < tries && best > 0; try++ {
			t.cceIDs[f] = uint16(r.Uint64())
			if c := collisions(); c < best {
				best = c
				saved = t.cceIDs[f]
			}
		}
		t.cceIDs[f] = saved
	}
	return best
}

// EncryptionKey returns the call-chain-encryption key of a chain: the XOR
// of the 16-bit ids of its functions, computed incrementally at each call
// in a real implementation (3 instructions per call, paper §5.1). XOR makes
// the key order-insensitive and cancels even recursion — exactly the
// imprecision the paper's scheme accepts. AssignEncryptionIDsMinimizing
// must be called first.
func (t *Table) EncryptionKey(id ChainID) uint16 {
	var k uint16
	for _, f := range t.chains[id] {
		k ^= t.cceIDs[f]
	}
	return k
}
