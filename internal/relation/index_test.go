package relation

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// modelEntry is one tuple of the identity map model: its id and
// whether it is a fact (inserted) or only interned.
type modelEntry struct {
	t    Tuple
	id   TupleID
	fact bool
}

type identityModel struct{ entries []modelEntry }

func (m *identityModel) find(t Tuple) *modelEntry {
	for i := range m.entries {
		if m.entries[i].t.Compare(t) == 0 {
			return &m.entries[i]
		}
	}
	return nil
}

func randTuple(rng *rand.Rand) Tuple {
	args := make([]Const, rng.Intn(9)) // arity 0..8
	for i := range args {
		args[i] = Const(rng.Intn(3))
	}
	return Tuple{Rel: RelID(rng.Intn(3)), Args: args}
}

// TestIndexMatchesMapModel drives Insert, InternTuple, ID, Contains,
// and overlay promotion over random tuples of arity 0–8 and checks
// every answer against a linear-scan model of the id assignment.
func TestIndexMatchesMapModel(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDatabase(NewSchema(), NewDomain())
		var m identityModel
		next := TupleID(0)
		frozen := false
		facts := 0
		for step := 0; step < 300; step++ {
			tu := randTuple(rng)
			e := m.find(tu)
			switch op := rng.Intn(10); {
			case op < 4 || (!frozen && op < 7): // Insert
				id := db.Insert(tu)
				switch {
				case e == nil:
					if id != next {
						t.Fatalf("seed %d step %d: Insert new %v = %d, want %d", seed, step, tu, id, next)
					}
					m.entries = append(m.entries, modelEntry{t: tu, id: id, fact: true})
					next++
					facts++
				case id != e.id:
					t.Fatalf("seed %d step %d: Insert %v = %d, want existing %d", seed, step, tu, id, e.id)
				case !e.fact: // overlay promotion keeps the interned id
					e.fact = true
					facts++
				}
			case op < 7: // InternTuple
				frozen = true
				id := db.InternTuple(tu)
				if e == nil {
					if id != next {
						t.Fatalf("seed %d step %d: InternTuple new %v = %d, want %d", seed, step, tu, id, next)
					}
					m.entries = append(m.entries, modelEntry{t: tu, id: id})
					next++
				} else if id != e.id {
					t.Fatalf("seed %d step %d: InternTuple %v = %d, want %d", seed, step, tu, id, e.id)
				}
			default: // ID / Contains on a known or random tuple
				if len(m.entries) > 0 && rng.Intn(2) == 0 {
					e = &m.entries[rng.Intn(len(m.entries))]
					tu = e.t
				}
				id, ok := db.ID(tu)
				wantFact := e != nil && e.fact
				if ok != wantFact || db.Contains(tu) != wantFact {
					t.Fatalf("seed %d step %d: ID/Contains %v fact=%v/%v, want %v", seed, step, tu, ok, db.Contains(tu), wantFact)
				}
				if ok && id != e.id {
					t.Fatalf("seed %d step %d: ID %v = %d, want %d", seed, step, tu, id, e.id)
				}
			}
		}
		if db.NumIDs() != int(next) || db.Size() != facts {
			t.Fatalf("seed %d: NumIDs/Size = %d/%d, want %d/%d", seed, db.NumIDs(), db.Size(), next, facts)
		}
		for _, e := range m.entries {
			if !db.TupleByID(e.id).Equal(e.t) {
				t.Fatalf("seed %d: TupleByID(%d) = %v, want %v", seed, e.id, db.TupleByID(e.id), e.t)
			}
		}
	}
}

// TestIndexForcedCollisions sends every key down one probe sequence,
// so each lookup must be decided by the exact comparison alone.
func TestIndexForcedCollisions(t *testing.T) {
	defer func(m uint64) { hashMask = m }(hashMask)
	hashMask = 0

	db := NewDatabase(NewSchema(), NewDomain())
	var all []Tuple
	for rel := RelID(0); rel < 3; rel++ {
		for n := 0; n <= 3; n++ {
			args := make([]Const, n)
			for i := range args {
				args[i] = Const(i + int(rel))
			}
			all = append(all, Tuple{Rel: rel, Args: args})
		}
	}
	facts := all[:len(all)/2]
	for i, tu := range facts {
		if id := db.Insert(tu); id != TupleID(i) {
			t.Fatalf("Insert %v = %d, want %d", tu, id, i)
		}
	}
	for i, tu := range all {
		if id := db.InternTuple(tu); id != TupleID(i) {
			t.Fatalf("InternTuple %v = %d, want %d", tu, id, i)
		}
		if db.Contains(tu) != (i < len(facts)) {
			t.Fatalf("Contains %v = %v, want %v", tu, db.Contains(tu), i < len(facts))
		}
	}
	if db.Contains(NewTuple(0, 9, 9)) {
		t.Fatal("absent tuple found among colliding keys")
	}
}

// TestIndexHitsDoNotAllocate pins the zero-allocation hit paths: an
// InternTuple hit on a 6-column tuple (wider than any fixed-size key
// would cover) and a duplicate Insert.
func TestIndexHitsDoNotAllocate(t *testing.T) {
	db := NewDatabase(NewSchema(), NewDomain())
	fact := NewTuple(0, 1, 2)
	db.Insert(fact)
	if n := testing.AllocsPerRun(100, func() { db.Insert(fact) }); n != 0 {
		t.Errorf("duplicate Insert allocates %.1f times", n)
	}
	wide := NewTuple(1, 1, 2, 3, 4, 5, 6)
	db.InternTuple(wide)
	if n := testing.AllocsPerRun(100, func() { db.InternTuple(wide) }); n != 0 {
		t.Errorf("InternTuple hit on arity 6 allocates %.1f times", n)
	}
}

// TestIndexConcurrentIntern interns one tuple set from several
// goroutines in different orders while others probe facts: every
// tuple must get exactly one id, whichever goroutine assigned it.
func TestIndexConcurrentIntern(t *testing.T) {
	db := NewDatabase(NewSchema(), NewDomain())
	rng := rand.New(rand.NewSource(1))
	var facts, derived []Tuple
	for i := 0; i < 300; i++ {
		tu := randTuple(rng)
		if i%3 == 0 {
			db.Insert(tu)
			facts = append(facts, tu)
		} else {
			derived = append(derived, tu)
		}
	}
	const workers = 4
	ids := make([][]TupleID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got := make([]TupleID, len(derived))
			for k := range derived {
				i := k
				if w%2 == 1 {
					i = len(derived) - 1 - k
				}
				got[i] = db.InternTuple(derived[i])
				if f := facts[k%len(facts)]; !db.Contains(f) {
					t.Errorf("worker %d: fact %v not found", w, f)
				}
			}
			ids[w] = got
		}(w)
	}
	wg.Wait()
	for i, tu := range derived {
		for w := 1; w < workers; w++ {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("%v interned as %d by worker 0 but %d by worker %d", tu, ids[0][i], ids[w][i], w)
			}
		}
		if !db.TupleByID(ids[0][i]).Equal(tu) {
			t.Fatalf("id %d resolves to %v, want %v", ids[0][i], db.TupleByID(ids[0][i]), tu)
		}
	}
}

// internMany interns n distinct non-fact tuples into a database holding
// two facts and returns their ids in intern order.
func internMany(db *Database, n int) []TupleID {
	db.Insert(NewTuple(0, 1, 2))
	db.Insert(NewTuple(0, 2, 3))
	ids := make([]TupleID, n)
	for i := range ids {
		ids[i] = db.InternTuple(NewTuple(1, Const(i), Const(i/7)))
	}
	return ids
}

// TestInternChunkBoundaries interns 5000 tuples — nine geometric
// overlay chunks — and resolves every id, in particular the first and
// last of each chunk.
func TestInternChunkBoundaries(t *testing.T) {
	db := NewDatabase(NewSchema(), NewDomain())
	const n = 5000
	ids := internMany(db, n)
	for i, id := range ids {
		if want := TupleID(2 + i); id != want {
			t.Fatalf("intern %d got id %d, want %d", i, id, want)
		}
		if got, want := db.TupleByID(id), NewTuple(1, Const(i), Const(i/7)); !got.Equal(want) {
			t.Fatalf("id %d resolves to %v, want %v", id, got, want)
		}
	}
	start := 0
	for k := 0; start < n; k++ {
		size := internChunkMin << k
		for _, off := range []int{start, start + size - 1} {
			if gk, at := internChunk(off); gk != k || at != off-start {
				t.Fatalf("internChunk(%d) = %d,%d want %d,%d", off, gk, at, k, off-start)
			}
		}
		start += size
	}
	spine := *db.intern.spine.Load()
	slots := 0
	for k, c := range spine {
		if len(c) != internChunkMin<<k {
			t.Errorf("chunk %d holds %d tuples, want %d", k, len(c), internChunkMin<<k)
		}
		slots += len(c)
	}
	if slots >= 2*n+internChunkMin {
		t.Errorf("%d overlay slots for %d interned tuples", slots, n)
	}
}

// TestInternResolveWhileInterning resolves published ids lock-free
// while another goroutine keeps interning and growing the chunk spine;
// run under -race.
func TestInternResolveWhileInterning(t *testing.T) {
	db := NewDatabase(NewSchema(), NewDomain())
	db.Insert(NewTuple(0, 1, 2))
	first := db.InternTuple(NewTuple(1, 0, 0))
	const n = 3000
	var published atomic.Int64
	published.Store(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i < n; i++ {
			db.InternTuple(NewTuple(1, Const(i), Const(i/7)))
			published.Store(int64(i + 1))
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for published.Load() < n {
				i := rng.Intn(int(published.Load()))
				got := db.TupleByID(first + TupleID(i))
				if want := NewTuple(1, Const(i), Const(i/7)); !got.Equal(want) {
					t.Errorf("id %d resolves to %v, want %v", first+TupleID(i), got, want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}
