package trace

import (
	"encoding/binary"
	"sync"

	"repro/internal/expr"
)

// ObsID is the interned identity of a distinct Observation. Ids are
// dense and assigned in first-sight order, so they double as stable
// indices into the interner's canonical table.
type ObsID int32

// Interner hash-conses observations: each distinct observation (by
// value equality under the schema) maps to one ObsID and one canonical
// copy. Window identity then becomes a fixed-size array of ids that is
// compared and hashed without any string building, which is what makes
// streaming window dedup allocation-free after warm-up.
//
// The interner is safe for concurrent use; the streaming windower's
// dispatcher is the only writer in practice, but monitors may intern
// from several goroutines.
type Interner struct {
	mu    sync.Mutex
	obs   map[string]ObsID // key: little-endian value-id encoding
	canon []Observation    // ObsID → canonical copy (read-only)
	vals  valueTable
	buf   []byte // reused key-encoding buffer
}

// valueTable interns expr-level values into dense int32 ids.
// expr.Value is comparable, so a plain map works; symbol strings are
// retained by the map key, which is the single copy the pipeline keeps.
type valueTable struct {
	ids map[expr.Value]int32
}

func (t *valueTable) intern(v expr.Value) int32 {
	if id, ok := t.ids[v]; ok {
		return id
	}
	id := int32(len(t.ids))
	t.ids[v] = id
	return id
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{
		obs:  make(map[string]ObsID),
		vals: valueTable{ids: make(map[expr.Value]int32)},
	}
}

// Intern returns the id of obs, assigning the next dense id and taking
// a canonical copy on first sight. The argument may be a reused buffer
// (the Source contract); the interner never retains it.
func (in *Interner) Intern(obs Observation) ObsID {
	in.mu.Lock()
	defer in.mu.Unlock()
	// Encode the observation as the little-endian concatenation of its
	// value ids. Map lookup with string(buf) does not allocate (the
	// compiler recognises the pattern), so the steady state — every
	// observation already seen — does no allocation at all.
	buf := in.buf[:0]
	for _, v := range obs {
		id := in.vals.intern(v)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	in.buf = buf
	if id, ok := in.obs[string(buf)]; ok {
		return id
	}
	id := ObsID(len(in.canon))
	in.obs[string(buf)] = id
	in.canon = append(in.canon, append(Observation(nil), obs...))
	return id
}

// Obs returns the canonical observation for id. The returned slice is
// shared and must be treated as read-only.
func (in *Interner) Obs(id ObsID) Observation {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.canon[id]
}

// Len returns the number of distinct observations interned so far.
func (in *Interner) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.canon)
}

// Canon returns the canonical observations in id order (ObsID i maps
// to the i-th element). Checkpointing serialises exactly this list:
// because ids are assigned in first-sight order, and the first sight
// of every value happens inside the first sight of some observation,
// re-interning the list in order on an empty Interner reproduces both
// the observation and the value tables bit-for-bit. The returned
// slice is fresh; its observations are the shared read-only canonical
// copies.
func (in *Interner) Canon() []Observation {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Observation(nil), in.canon...)
}

// CanonSince returns the canonical observations with id ≥ n as a
// capacity-capped subslice of the canonical table: no copy, and safe
// to read even while the interner keeps growing, because later Intern
// calls only append past the captured length (if the append relocates
// the table, the captured slice keeps the old backing array; the
// entries themselves are never mutated). A sharded decode (see
// BlockSource) uses this to ship each block's newly-seen observations
// to its merger.
func (in *Interner) CanonSince(n int) []Observation {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.canon[n:len(in.canon):len(in.canon)]
}

// maxArrayWindow is the window width the array-backed WindowKey form
// covers; wider windows (rare — the paper uses w ≤ 4) fall back to a
// string-encoded key.
const maxArrayWindow = 12

// WindowKey is the comparable identity of one w-window of observations:
// for w ≤ maxArrayWindow a fixed-size array of interned ids (zero
// allocation to build, compare or hash), otherwise a string encoding.
// Keys are only comparable between windows of the same width produced
// by the same Interner; trailing zero slots in the array form are
// unambiguous because every window in one generator shares w.
type WindowKey struct {
	n uint8
	a [maxArrayWindow]ObsID
	s string
}

// MakeWindowKey builds the key for a window given its interned ids in
// position order.
func MakeWindowKey(ids []ObsID) WindowKey {
	var k WindowKey
	if len(ids) <= maxArrayWindow {
		k.n = uint8(len(ids))
		copy(k.a[:], ids)
		return k
	}
	buf := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	k.s = string(buf)
	return k
}

// IDs returns the interned ids the key was built from, in position
// order, decoding whichever representation the key uses. It is the
// inverse of MakeWindowKey (checkpoints serialise memo keys through
// it): MakeWindowKey(k.IDs()) == k.
func (k WindowKey) IDs() []ObsID {
	if k.s != "" {
		ids := make([]ObsID, len(k.s)/4)
		for i := range ids {
			ids[i] = ObsID(binary.LittleEndian.Uint32([]byte(k.s[4*i : 4*i+4])))
		}
		return ids
	}
	ids := make([]ObsID, k.n)
	copy(ids, k.a[:k.n])
	return ids
}
