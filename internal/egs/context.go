// Package egs implements the Example-Guided Synthesis algorithm for
// relational queries (Sections 4 and 5 of the PLDI 2021 paper): the
// ExplainCell worklist search over enumeration contexts drawn from
// the constant co-occurrence graph, the slice-wise ExplainTuple
// procedure for multi-column outputs, and the divide-and-conquer
// LearnUCQ loop for unions of conjunctive queries.
package egs

import (
	"sort"

	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/relation"
)

// ectx is an enumeration context: a set of input tuples C ⊆ I
// (Section 4.2), held as sorted tuple ids, together with the
// evaluation results that the priority queue orders by.
type ectx struct {
	ids []relation.TupleID // sorted ascending

	// consistent records whether r_{C -> t[1..i]} derives no
	// forbidden i-slice (Step 3b of Algorithm 1).
	consistent bool
	// score is the paper's p2 priority: forbidden slices eliminated
	// per body literal (see cellParams for the unknown-|F_i| case).
	score float64
	// seq is a FIFO tie-breaker for deterministic exploration,
	// assigned in generation order by the (sequential) staging pass.
	seq int

	// evals (0 or 1) counts the rule evaluations performed while
	// assessing this context; memoHit records that the assessment was
	// answered from the canonical-rule cache instead.
	evals   uint8
	memoHit bool
}

func (c *ectx) size() int { return len(c.ids) }

// idArena bump-allocates the id slices of enumeration contexts. One
// searcher allocates tens of thousands of short-lived contexts; the
// arena turns one heap allocation per context into one per chunk.
// Slices are never individually freed — contexts that outlive a cell
// (the explaining contexts) keep their chunks alive, everything else
// is reclaimed when the searcher is dropped.
type idArena struct {
	chunk []relation.TupleID
	// next is the capacity of the next chunk. Chunks double from
	// arenaMinChunkIDs to arenaMaxChunkIDs, so a search that explores
	// five contexts pays for five contexts, not for 8192 ids.
	next int
}

const (
	arenaMinChunkIDs = 256
	arenaChunkIDs    = 8192 // max chunk size; also the steady-state stride
)

// alloc carves an n-id slice out of the current chunk. The result has
// capacity exactly n, so a later append cannot bleed into a
// neighbouring context's ids.
func (a *idArena) alloc(n int) []relation.TupleID {
	if len(a.chunk)+n > cap(a.chunk) {
		if a.next == 0 {
			a.next = arenaMinChunkIDs
		}
		size := a.next
		if n > size {
			size = n
		}
		if a.next < arenaChunkIDs {
			a.next *= 2
		}
		a.chunk = make([]relation.TupleID, 0, size)
	}
	start := len(a.chunk)
	a.chunk = a.chunk[:start+n]
	return a.chunk[start : start+n : start+n]
}

// copy clones a sorted id set into the arena.
func (a *idArena) copy(ids []relation.TupleID) []relation.TupleID {
	out := a.alloc(len(ids))
	copy(out, ids)
	return out
}

// extend returns the sorted set ids ∪ {id}, allocated in the arena.
// The caller must have checked id ∉ ids (containsID).
func (a *idArena) extend(ids []relation.TupleID, id relation.TupleID) []relation.TupleID {
	out := a.alloc(len(ids) + 1)
	i := sort.Search(len(ids), func(k int) bool { return ids[k] >= id })
	copy(out, ids[:i])
	out[i] = id
	copy(out[i+1:], ids[i:])
	return out
}

// ectxSlab batch-allocates ectx structs. Contexts are allocated once
// per staging and never recycled (popped contexts may still be
// referenced as explanations), so the slab only amortizes allocation.
// Chunks double from slabMinChunkCtxs to slabMaxChunkCtxs, matching
// the arena's growth policy. Fresh slots come zeroed from make.
type ectxSlab struct {
	chunk []ectx
	next  int
}

const (
	slabMinChunkCtxs = 32
	slabMaxChunkCtxs = 1024
)

func (s *ectxSlab) alloc() *ectx {
	if len(s.chunk) == cap(s.chunk) {
		if s.next == 0 {
			s.next = slabMinChunkCtxs
		}
		size := s.next
		if s.next < slabMaxChunkCtxs {
			s.next *= 2
		}
		s.chunk = make([]ectx, 0, size)
	}
	s.chunk = s.chunk[:len(s.chunk)+1]
	return &s.chunk[len(s.chunk)-1]
}

func containsID(ids []relation.TupleID, id relation.TupleID) bool {
	i := sort.Search(len(ids), func(k int) bool { return ids[k] >= id })
	return i < len(ids) && ids[i] == id
}

// generalize builds the rule r_{C -> t[1..i]} of Equation 5: the
// context's tuples become body literals and the target slice becomes
// the head, with constants consistently replaced by fresh variables.
// ok is false when some head constant does not occur in the context
// (the rule would be unsafe, so the context cannot explain the slice).
func generalize(db *relation.Database, ids []relation.TupleID, target relation.Tuple, i int) (query.Rule, bool) {
	varOf := make(map[relation.Const]query.Var)
	next := query.Var(0)
	lookup := func(c relation.Const) query.Var {
		v, ok := varOf[c]
		if !ok {
			v = next
			next++
			varOf[c] = v
		}
		return v
	}
	// Assign body variables first (deterministic in tuple-id order),
	// so admissibility of the head is checkable afterwards.
	body := make([]query.Literal, len(ids))
	for bi, id := range ids {
		tu := db.Tuple(id)
		lit := query.Literal{Rel: tu.Rel, Args: make([]query.Term, len(tu.Args))}
		for ai, c := range tu.Args {
			lit.Args[ai] = query.V(lookup(c))
		}
		body[bi] = lit
	}
	head := query.Literal{Rel: target.Rel, Args: make([]query.Term, i)}
	for ai := 0; ai < i; ai++ {
		v, ok := varOf[target.Args[ai]]
		if !ok {
			return query.Rule{}, false
		}
		head.Args[ai] = query.V(v)
	}
	return query.Rule{Head: head, Body: body}, true
}
