package relation

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// TupleID identifies a tuple within a Database. Ids are dense and
// assigned in insertion order; the EGS algorithm uses them to build
// canonical keys for enumeration contexts, and TupleSet represents
// sets of them as bitsets. The id space covers both inserted
// (extensional) tuples and tuples interned via InternTuple (derived
// output tuples, example tuples): inserted tuples occupy the low ids,
// interned-only tuples the ids from the freeze point upward.
type TupleID int32

// Database is an indexed set of ground tuples over a Schema and a
// Domain. It supports the access paths the synthesizer needs:
//
//   - extent of a relation (for join enumeration),
//   - tuples with a given constant at a given column (for index joins),
//   - tuples mentioning a given constant anywhere (the co-occurrence
//     graph's neighbourhood function),
//   - membership tests.
//
// A Database is append-only; it is safe for concurrent reads after all
// Insert calls have completed. The interning table (InternTuple) is
// additionally safe for concurrent use once inserts are done, so
// parallel synthesis workers can intern derived tuples while others
// read.
//
// # Generations
//
// The first InternTuple call closes the load phase: base facts keep
// the dense low ids and interned tuples take ids from the overlay
// spine. Facts inserted after that point land in an overlay
// *generation* (see Insert and BeginGeneration): they draw their ids
// from the same spine — so every previously issued TupleID stays
// stable forever — and are additionally indexed as facts. Extents and
// indexes are append-only in ascending id order, which makes a
// Snapshot (an id watermark) a consistent view of any past
// generation. Overlay mutation is a between-runs operation: Insert
// and BeginGeneration must not race with readers; incremental
// sessions serialize deltas against synthesis runs.
type Database struct {
	Schema *Schema
	Domain *Domain

	tuples []Tuple // base facts; ids [0, len(tuples))
	// ids is the identity index of every tuple holding an id: base
	// facts, overlay facts, and interned tuples alike. It resolves ids
	// through TupleByID, so it stores no second copy of any args.
	// Guarded by intern.mu.
	ids Index

	byRel [][]TupleID // relation id -> extent
	// byCol[rel][col] maps a constant to the tuples of rel having
	// that constant in column col.
	byCol [][]map[Const][]TupleID
	// byConst maps a constant to every tuple mentioning it (dedup'd).
	byConst map[Const][]TupleID

	intern internTable

	// gen is the current overlay generation; 0 is the base (load
	// phase) generation. overlay maps each post-freeze fact id to the
	// generation it landed in, and overlayIDs lists those ids in
	// insertion order (ascending, since the spine allocates ids
	// monotonically).
	gen        Gen
	overlay    map[TupleID]Gen
	overlayIDs []TupleID

	// cols caches columnar (bitset) views of the indexes for the
	// batch evaluator; entries self-invalidate via size stamps (see
	// colcache.go).
	cols colCache
}

// Gen numbers overlay generations of a Database. Generation 0 is the
// base extensional database; each BeginGeneration (or the first
// post-freeze Insert) opens the next one.
type Gen int32

// The interning overlay stores tuples in chunks of geometrically
// growing size: chunk k holds internChunkMin<<k tuples, so a database
// that interns a few dozen tuples holds a few hundred bytes of overlay
// and one that interns n holds at most about 2n slots. Chunks are
// never moved once published, so readers need no lock to dereference
// an id they hold.
const internChunkMin = 16

// internChunk locates overlay offset off: chunk k starts at offset
// internChunkMin*(2^k - 1).
func internChunk(off int) (k, at int) {
	k = bits.Len(uint(off/internChunkMin+1)) - 1
	return k, off - internChunkMin*(1<<k-1)
}

// internTable assigns dense ids, continuing the Database's id space,
// to tuples that are not inserted facts: derived output tuples and
// example tuples. The first InternTuple call that assigns an id
// freezes the insert region (ids [0, base)); interned tuples take ids
// base, base+1, ...
//
// Lookups and appends (Database.ids and the spine) are guarded by mu.
// Resolving an id a goroutine already holds is lock-free: the chunk
// spine is published via an atomic pointer and chunks are never
// reallocated.
type internTable struct {
	mu     sync.RWMutex
	frozen bool
	spine  atomic.Pointer[[][]Tuple]
	count  int
	base   int // len(db.tuples) at freeze time
}

// NewDatabase returns an empty database over the given schema and
// domain.
func NewDatabase(s *Schema, d *Domain) *Database {
	return &Database{
		Schema:  s,
		Domain:  d,
		byConst: make(map[Const][]TupleID),
	}
}

// Insert adds a fact tuple and returns its id. Inserting a duplicate
// fact returns the existing id without modifying the database. The
// args slice is copied, so callers may reuse their buffers.
//
// During the load phase (before the first InternTuple call) facts
// take the dense low ids. After the first intern, Insert routes
// through the overlay: the fact draws its id from the interning spine
// — so it can never collide with an id already issued — and is
// stamped with the current overlay generation (opening generation 1
// implicitly if none has been opened yet). Overlay inserts must not
// race with concurrent readers or interns; they are a between-runs
// operation.
func (db *Database) Insert(t Tuple) TupleID {
	it := &db.intern
	it.mu.Lock()
	if it.frozen {
		it.mu.Unlock()
		return db.insertOverlay(t)
	}
	id, added := db.ids.Insert(t, int32(len(db.tuples)), db.keyAt)
	if added {
		t = Tuple{Rel: t.Rel, Args: append([]Const(nil), t.Args...)}
		db.tuples = append(db.tuples, t)
	}
	it.mu.Unlock()
	if added {
		db.index(t, TupleID(id))
	}
	return TupleID(id)
}

// keyAt resolves an identity-index id; it is the index's key resolver.
func (db *Database) keyAt(id int32) Tuple { return db.TupleByID(TupleID(id)) }

// index registers a fact tuple in the extent, column, and constant
// indexes, keeping every index list in ascending id order — the
// invariant Snapshot relies on. Ids almost always arrive in ascending
// order (base inserts count up from 0; overlay inserts draw
// monotonically from the spine), so sortedInsert is an append; only a
// promoted interned tuple can land before facts already indexed.
func (db *Database) index(t Tuple, id TupleID) {
	for int(t.Rel) >= len(db.byRel) {
		db.byRel = append(db.byRel, nil)
		db.byCol = append(db.byCol, nil)
	}
	db.byRel[t.Rel] = sortedInsert(db.byRel[t.Rel], id)

	cols := db.byCol[t.Rel]
	for len(cols) < len(t.Args) {
		cols = append(cols, make(map[Const][]TupleID))
	}
	db.byCol[t.Rel] = cols
	for col, c := range t.Args {
		cols[col][c] = sortedInsert(cols[col][c], id)
		if !slices.Contains(t.Args[:col], c) {
			db.byConst[c] = sortedInsert(db.byConst[c], id)
		}
	}
}

// insertOverlay adds a post-freeze fact: the tuple is interned (a
// no-op if some earlier intern already named it) and then indexed as
// a fact of the current generation. Interned ids are monotone, but a
// tuple interned earlier (as a derived or example tuple) and only now
// promoted to a fact may carry an id smaller than facts already
// indexed — sortedInsert keeps the index lists ordered in that case.
func (db *Database) insertOverlay(t Tuple) TupleID {
	id := db.InternTuple(t)
	if _, isFact := db.GenerationOf(id); isFact {
		return id
	}
	if db.gen == 0 {
		db.gen = 1
	}
	if db.overlay == nil {
		db.overlay = make(map[TupleID]Gen)
	}
	db.overlay[id] = db.gen
	db.overlayIDs = sortedInsert(db.overlayIDs, id)
	t = db.TupleByID(id) // the interned copy owns its args
	db.index(t, id)
	return id
}

// sortedInsert inserts id into the ascending list ids. The common
// case — id larger than everything present — is a plain append.
func sortedInsert(ids []TupleID, id TupleID) []TupleID {
	n := len(ids)
	if n == 0 || ids[n-1] < id {
		return append(ids, id)
	}
	i := sort.Search(n, func(k int) bool { return ids[k] >= id })
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// BeginGeneration opens a new overlay generation and returns its
// number. Facts inserted from now on are stamped with it; ids issued
// earlier are unaffected. Like overlay Insert, it must not race with
// readers.
func (db *Database) BeginGeneration() Gen {
	db.gen++
	return db.gen
}

// Generation returns the current overlay generation (0 until a
// post-freeze insert or BeginGeneration opens one).
func (db *Database) Generation() Gen { return db.gen }

// GenerationOf reports which generation the fact with the given id
// belongs to: 0 for base facts, the stamped generation for overlay
// facts. ok is false when id does not name a fact (interned-only
// tuples have no generation).
func (db *Database) GenerationOf(id TupleID) (Gen, bool) {
	if int(id) < len(db.tuples) {
		return 0, true
	}
	g, ok := db.overlay[id]
	return g, ok
}

// Size reports the number of fact tuples (base plus overlay;
// interned-only tuples are not counted — they are not facts of the
// database).
func (db *Database) Size() int { return len(db.tuples) + len(db.overlayIDs) }

// Tuple returns the tuple with the given id. It is the evaluator's
// hot path: base-fact ids resolve with one bounds comparison and no
// lock; overlay and interned ids go through the lock-free spine.
func (db *Database) Tuple(id TupleID) Tuple { return db.TupleByID(id) }

// InternTuple returns the dense id of t, assigning a fresh one on
// first sight. Tuples already inserted keep their insert-time id;
// other tuples (derived output tuples, example tuples) are added to
// the interning overlay, which does not affect extents, indexes,
// Contains, or Size. The args slice is copied when the tuple is new.
//
// The first call that assigns an id freezes the insert region;
// InternTuple is safe for concurrent use from then on. A hit — the
// evaluator interns one head tuple per satisfying valuation, so this
// is the hottest operation in synthesis — is one hash-index probe
// under the read lock and does not allocate.
func (db *Database) InternTuple(t Tuple) TupleID {
	it := &db.intern
	it.mu.RLock()
	id, ok := db.ids.Find(t, db.keyAt)
	it.mu.RUnlock()
	if ok {
		return TupleID(id)
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	if !it.frozen {
		it.frozen = true
		it.base = len(db.tuples)
	}
	id, added := db.ids.Insert(t, int32(it.base+it.count), db.keyAt)
	if !added {
		return TupleID(id) // a racing intern got there first
	}
	k, at := internChunk(it.count)
	spine := it.spine.Load()
	if at == 0 {
		var old [][]Tuple
		if spine != nil {
			old = *spine
		}
		grown := make([][]Tuple, len(old)+1)
		copy(grown, old)
		grown[k] = make([]Tuple, internChunkMin<<k)
		it.spine.Store(&grown)
		spine = &grown
	}
	(*spine)[k][at] = Tuple{Rel: t.Rel, Args: append([]Const(nil), t.Args...)}
	it.count++
	return TupleID(id)
}

// TupleByID resolves any id in the database's id space — inserted or
// interned. Resolving an id the caller legitimately holds is
// lock-free.
func (db *Database) TupleByID(id TupleID) Tuple {
	i := int(id)
	if i < len(db.tuples) {
		return db.tuples[i]
	}
	k, at := internChunk(i - db.intern.base)
	return (*db.intern.spine.Load())[k][at]
}

// NumIDs reports the total number of assigned ids (inserted plus
// interned); TupleID values are always in [0, NumIDs).
func (db *Database) NumIDs() int {
	db.intern.mu.RLock()
	defer db.intern.mu.RUnlock()
	return len(db.tuples) + db.intern.count
}

// Contains reports whether the database holds the given tuple as a
// fact (base or overlay; interned-only tuples are not facts).
func (db *Database) Contains(t Tuple) bool {
	_, ok := db.ID(t)
	return ok
}

// ID returns the id of the given fact tuple, if present. A tuple that
// is only interned reports its id with ok false.
func (db *Database) ID(t Tuple) (TupleID, bool) {
	db.intern.mu.RLock()
	id, ok := db.ids.Find(t, db.keyAt)
	db.intern.mu.RUnlock()
	if !ok {
		return 0, false
	}
	_, isFact := db.GenerationOf(TupleID(id))
	return TupleID(id), isFact
}

// Extent returns the ids of all tuples of relation r. The returned
// slice is shared; callers must not mutate it.
func (db *Database) Extent(r RelID) []TupleID {
	if int(r) >= len(db.byRel) {
		return nil
	}
	return db.byRel[r]
}

// ExtentSize reports the number of tuples of relation r.
func (db *Database) ExtentSize(r RelID) int { return len(db.Extent(r)) }

// AtColumn returns the ids of tuples of relation r whose column col
// holds constant c. The returned slice is shared; do not mutate.
func (db *Database) AtColumn(r RelID, col int, c Const) []TupleID {
	if int(r) >= len(db.byCol) || col >= len(db.byCol[r]) {
		return nil
	}
	return db.byCol[r][col][c]
}

// Mentioning returns the ids of all tuples that mention constant c in
// any position. The returned slice is shared; do not mutate.
func (db *Database) Mentioning(c Const) []TupleID {
	return db.byConst[c]
}

// All returns all fact tuples in ascending id order (base facts keep
// insertion order; overlay facts follow). The result is a deep copy:
// mutating the returned tuples cannot corrupt the database or its
// indexes.
func (db *Database) All() []Tuple {
	ids := db.AllIDs()
	out := make([]Tuple, len(ids))
	for i, id := range ids {
		t := db.TupleByID(id)
		out[i] = Tuple{Rel: t.Rel, Args: append([]Const(nil), t.Args...)}
	}
	return out
}

// AllIDs returns all fact tuple ids in ascending order.
func (db *Database) AllIDs() []TupleID {
	ids := make([]TupleID, 0, len(db.tuples)+len(db.overlayIDs))
	for i := range db.tuples {
		ids = append(ids, TupleID(i))
	}
	return append(ids, db.overlayIDs...)
}

// Sorted returns all tuples in canonical (Compare) order; useful for
// deterministic printing.
func (db *Database) Sorted() []Tuple {
	ts := db.All()
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
	return ts
}

// ConstantsOf returns the distinct constants mentioned by the tuple
// set, in ascending id order.
func (db *Database) ConstantsOf(ids []TupleID) []Const {
	seen := make(map[Const]bool)
	var out []Const
	for _, id := range ids {
		for _, c := range db.TupleByID(id).Args {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Snapshot is a consistent view of the database at a generation
// boundary: it sees every base fact plus the overlay facts of
// generations up to and including its own, and none of any later
// generation. Snapshots are cheap (a generation number, no copying)
// and stay valid as the database grows, provided the contract of
// BeginGeneration is respected: take the snapshot before inserting
// into a newer generation, so the snapshot's own generation is
// complete.
type Snapshot struct {
	db  *Database
	gen Gen
}

// Snapshot returns a view pinned to the current generation.
func (db *Database) Snapshot() Snapshot { return Snapshot{db: db, gen: db.gen} }

// Generation returns the generation this snapshot is pinned to.
func (s Snapshot) Generation() Gen { return s.gen }

// Has reports whether the fact with the given id is visible: base
// facts always are, overlay facts iff their generation is not newer
// than the snapshot's.
func (s Snapshot) Has(id TupleID) bool {
	if int(id) < len(s.db.tuples) {
		return true
	}
	g, ok := s.db.overlay[id]
	return ok && g <= s.gen
}

// Size reports the number of facts visible in this snapshot.
func (s Snapshot) Size() int {
	n := len(s.db.tuples)
	for _, g := range s.db.overlay {
		if g <= s.gen {
			n++
		}
	}
	return n
}

// Extent returns the ids of visible tuples of relation r, ascending.
// When nothing newer than the snapshot exists the live index slice is
// returned as-is (shared; do not mutate); otherwise a filtered copy.
func (s Snapshot) Extent(r RelID) []TupleID {
	return s.filter(s.db.Extent(r))
}

// AtColumn returns the ids of visible tuples of relation r whose
// column col holds constant c. Shared or copied as for Extent.
func (s Snapshot) AtColumn(r RelID, col int, c Const) []TupleID {
	return s.filter(s.db.AtColumn(r, col, c))
}

// Mentioning returns the ids of visible tuples mentioning constant c.
// Shared or copied as for Extent.
func (s Snapshot) Mentioning(c Const) []TupleID {
	return s.filter(s.db.Mentioning(c))
}

// filter drops ids from later generations. The common case — every id
// visible — returns the input slice unchanged, so pinned-to-current
// snapshots add no per-read allocation.
func (s Snapshot) filter(ids []TupleID) []TupleID {
	for i, id := range ids {
		if !s.Has(id) {
			out := append([]TupleID(nil), ids[:i]...)
			for _, id := range ids[i+1:] {
				if s.Has(id) {
					out = append(out, id)
				}
			}
			return out
		}
	}
	return ids
}
