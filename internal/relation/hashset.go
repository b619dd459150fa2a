package relation

// This file provides the fingerprint machinery the synthesizers use to
// deduplicate enumeration contexts (sorted TupleID sets) without
// materializing a string key per candidate: a 64-bit set hash that can
// be computed incrementally for C ∪ {id} before the extended slice is
// ever allocated, and an open-addressed set of such fingerprints.

// hashSeed is the initial state of an id-set fingerprint and of an
// Index key hash (an arbitrary odd constant, the golden-ratio
// multiplier of Fibonacci hashing).
const hashSeed uint64 = 0x9e3779b97f4a7c15

// mix64 is the SplitMix64 finalizer: a cheap invertible permutation of
// uint64 with full avalanche, so sequential tuple ids spread over the
// whole output range.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// IDSetHash fingerprints a sorted id set. Equal sets always collide;
// distinct sets collide with probability ~2^-64, which the worklist
// search accepts (a false collision drops one candidate context from a
// search that explores the same region through many overlapping
// contexts).
func IDSetHash(ids []TupleID) uint64 {
	h := hashSeed
	for _, id := range ids {
		h = mix64(h ^ uint64(uint32(id)))
	}
	return h
}

// IDSetHashExtend fingerprints ids ∪ {id} without materializing the
// extended slice, by folding the elements in sorted order. ids must be
// sorted ascending and must not already contain id; the result equals
// IDSetHash of the extended sorted set.
func IDSetHashExtend(ids []TupleID, id TupleID) uint64 {
	h := hashSeed
	inserted := false
	for _, x := range ids {
		if !inserted && id < x {
			h = mix64(h ^ uint64(uint32(id)))
			inserted = true
		}
		h = mix64(h ^ uint64(uint32(x)))
	}
	if !inserted {
		h = mix64(h ^ uint64(uint32(id)))
	}
	return h
}

// HashSet64 is an open-addressed, linear-probed set of uint64
// fingerprints. It replaces map[string]bool in the ExplainCell visited
// set: no per-key string allocation, one cache line per probe. The
// zero value is an empty set ready for use.
type HashSet64 struct {
	table []uint64 // 0 marks an empty slot
	n     int
}

// emptySlot is the table's vacancy marker; a genuine zero fingerprint
// is remapped to hashSeed so it remains storable.
const emptySlot uint64 = 0

// Add inserts h and reports whether it was newly added.
func (s *HashSet64) Add(h uint64) bool {
	if h == emptySlot {
		h = hashSeed
	}
	if 4*(s.n+1) > 3*len(s.table) {
		s.grow()
	}
	mask := uint64(len(s.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch s.table[i] {
		case emptySlot:
			s.table[i] = h
			s.n++
			return true
		case h:
			return false
		}
	}
}

// Has reports whether h is in the set.
func (s *HashSet64) Has(h uint64) bool {
	if len(s.table) == 0 {
		return false
	}
	if h == emptySlot {
		h = hashSeed
	}
	mask := uint64(len(s.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch s.table[i] {
		case emptySlot:
			return false
		case h:
			return true
		}
	}
}

// Len reports the number of fingerprints in the set.
func (s *HashSet64) Len() int { return s.n }

// Reset empties the set, retaining capacity.
func (s *HashSet64) Reset() {
	for i := range s.table {
		s.table[i] = emptySlot
	}
	s.n = 0
}

// grow doubles the table (min 64 slots) and rehashes.
func (s *HashSet64) grow() {
	size := 64
	if len(s.table) > 0 {
		size = 2 * len(s.table)
	}
	old := s.table
	s.table = make([]uint64, size)
	mask := uint64(size - 1)
	for _, h := range old {
		if h == emptySlot {
			continue
		}
		for i := h & mask; ; i = (i + 1) & mask {
			if s.table[i] == emptySlot {
				s.table[i] = h
				break
			}
		}
	}
}
