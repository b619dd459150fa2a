package relation

// Index is an exact hash index from (relation, args) keys to dense
// int32 ids. It is the one tuple identity of the core: the Database's
// fact and interning table, the example oracle's i-slice table, and
// the evaluator's head-tuple dedup are all Indexes.
//
// The index stores no keys. Each slot holds a 32-bit hash tag and an
// id; a probe that meets a matching tag asks the caller's resolver
// (at) for the key stored under that id and compares it exactly, so a
// hash collision costs one extra comparison, never a wrong answer.
// Keys hash with mix64 over the relation id and every argument: there
// is no arity cap, and lookups do not allocate.
//
// The zero value is an empty index. An Index is not safe for
// concurrent mutation; Database guards its own with intern.mu.
type Index struct {
	slots []uint64 // tag<<32 | id+1; 0 marks an empty slot
	n     int
}

// hashMask is ANDed into every key hash. Only the collision tests
// change it (to 0, which sends every key down one probe sequence).
var hashMask uint64 = ^uint64(0)

// hashKey is the 32-bit tag of the key (rel, args); its low bits pick
// the home slot.
func hashKey(rel RelID, args []Const) uint32 {
	h := mix64(hashSeed ^ uint64(uint32(rel)))
	for _, a := range args {
		h = mix64(h ^ uint64(uint32(a)))
	}
	return uint32(h & hashMask)
}

// Find returns the id stored under key t. at resolves a stored id to
// the key it was inserted under.
func (x *Index) Find(t Tuple, at func(int32) Tuple) (int32, bool) {
	return x.find(t, hashKey(t.Rel, t.Args), at)
}

// Insert returns the id already stored under key t (added false), or
// records t under id and returns id (added true). at resolves stored
// ids as in Find; it is never called with the new id.
func (x *Index) Insert(t Tuple, id int32, at func(int32) Tuple) (got int32, added bool) {
	tag := hashKey(t.Rel, t.Args)
	if old, ok := x.find(t, tag, at); ok {
		return old, false
	}
	if 4*(x.n+1) > 3*len(x.slots) {
		x.grow()
	}
	x.place(uint64(tag)<<32 | uint64(uint32(id+1)))
	x.n++
	return id, true
}

// find walks the probe sequence of tag, comparing t exactly against
// every stored key whose tag matches.
func (x *Index) find(t Tuple, tag uint32, at func(int32) Tuple) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := uint64(len(x.slots) - 1)
	for i := uint64(tag) & mask; ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == 0 {
			return 0, false
		}
		if uint32(s>>32) == tag {
			if id := int32(uint32(s)) - 1; at(id).Equal(t) {
				return id, true
			}
		}
	}
}

// place stores slot s in the first empty slot of its probe sequence.
func (x *Index) place(s uint64) {
	mask := uint64(len(x.slots) - 1)
	for i := (s >> 32) & mask; ; i = (i + 1) & mask {
		if x.slots[i] == 0 {
			x.slots[i] = s
			return
		}
	}
}

// grow doubles the table (minimum 16 slots) and rehashes from the
// stored tags; no key is resolved.
func (x *Index) grow() {
	size := 16
	if len(x.slots) > 0 {
		size = 2 * len(x.slots)
	}
	old := x.slots
	x.slots = make([]uint64, size)
	for _, s := range old {
		if s != 0 {
			x.place(s)
		}
	}
}

// Len reports the number of keys in the index.
func (x *Index) Len() int { return x.n }

// Reset empties the index, retaining capacity. An empty index has
// only empty slots, so resetting it is free.
func (x *Index) Reset() {
	if x.n > 0 {
		clear(x.slots)
		x.n = 0
	}
}
