package egs

import (
	"math"

	"github.com/egs-synthesis/egs/internal/eval"
	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/relation"
	"github.com/egs-synthesis/egs/internal/task"
)

// cellParams freezes the per-cell inputs of context assessment: the
// target tuple, the slice index, and |F_i|. CountForbidden can
// overflow uint64 on astronomically large closed-world domains;
// countKnown records that explicitly instead of smuggling a sentinel
// value into the score arithmetic.
type cellParams struct {
	target relation.Tuple
	i      int
	// totalForbidden is |F_i| when countKnown; meaningless otherwise.
	totalForbidden uint64
	countKnown     bool
}

// score computes the p2 priority of a context with |C| = size whose
// rule derives derivedForbidden forbidden i-slices. With |F_i| known
// this is the paper's |F_i \ [[r]]| / |C|. When |F_i| overflows, every
// context eliminates "astronomically many" slices and the comparison
// that actually matters is how many forbidden slices the rule still
// derives, normalized per literal — so we order by -derived/|C|
// without ever mixing a real numerator with a magic constant.
func (p *cellParams) score(derivedForbidden, size int) float64 {
	if p.countKnown {
		return (float64(p.totalForbidden) - float64(derivedForbidden)) / float64(size)
	}
	return -float64(derivedForbidden) / float64(size)
}

// assessor evaluates candidate contexts, memoizing rule evaluations
// by canonical rule key in a Memo.
//
// Soundness of the memo: generalize maps a context C to the rule
// r_{C -> t[1..i]}; two contexts whose generalizations share a
// CanonicalKey are alpha-equivalent, and alpha-equivalent rules have
// identical output sets on a database with identical body extents —
// evaluation is invariant under variable renaming and body
// reordering. The number of derived forbidden i-slices depends only
// on that output set and on F_i, which is fixed per (relation, i) —
// both encoded in the rule head — so the cached count is exact, never
// heuristic, for as long as the Memo's validity stamps attest that
// those inputs are unchanged. Equal keys also imply equal body length
// |C|, hence equal score denominators.
//
// The memo is keyed by the canonical byte image of the rule
// (query.Canon), which is equal for two rules exactly when their
// CanonicalKeys are; prepare builds it straight from the context's
// tuples, and generalize builds the rule itself only on a miss.
//
// The memo is shared at least across cells and targets of one
// searcher: rules learned while explaining different positive tuples
// of the same output relation frequently re-derive the same candidate
// bodies. Sessions (Options.Memo) widen the sharing across whole
// revisions.
type assessor struct {
	ex   *task.Example
	memo *Memo
}

// assess evaluates r_{C -> t[1..i]} against the example and fills the
// context's consistent/score fields (Step 3b of Algorithm 1 plus the
// Section 4.3 priority). A context whose head constants are missing
// from C is inadmissible: never consistent and of minimal priority.
// sl is the caller's scratch; a memo hit allocates nothing once it has
// grown. assess is safe for concurrent use with distinct slots; the
// only shared mutations are the memo and Database.InternTuple, both
// locked.
func (a *assessor) assess(sl *assessSlot, c *ectx, p *cellParams) {
	sl.reset(c)
	a.prepare(sl, p)
	if sl.state == slotMiss {
		sl.memoKey = string(sl.key)
		a.evaluate(sl, p)
	}
	sl.finish(p)
}

// slotState records how far an assessment got before evaluation.
type slotState uint8

const (
	slotMiss         slotState = iota // memo miss: the rule must be evaluated
	slotHit                           // answered from the memo
	slotInadmissible                  // head constants missing from C
	slotDup                           // same key as an earlier miss of its batch
)

// assessSlot carries one context's assessment through its stages:
// prepare (canonical key and memo lookup), evaluate (misses only), and
// finish. A parallel batch runs the first two stages on the pool; see
// searcher.assessBatch. The slot owns the scratch prepare fills and
// keeps it across contexts.
type assessSlot struct {
	c *ectx
	// key is the canonical image of the context's rule; it lives in
	// scr and is valid until the slot's next prepare. memoKey is its
	// string copy, made once per miss for the memo to keep.
	key     []byte
	memoKey string
	derived int
	state   slotState
	first   int // slotDup: index of the batch's first miss with this key
	scr     keyScratch
}

// reset readies the slot for assessing c, keeping its scratch.
func (sl *assessSlot) reset(c *ectx) {
	sl.c, sl.key, sl.memoKey = c, nil, ""
	sl.derived, sl.state, sl.first = 0, slotMiss, 0
}

// keyScratch is the reusable memory of prepare: the context's rule
// r_{C -> t[1..i]} in query.Canon's flat form, the constants
// generalized so far (consts[v] became variable v), and the body
// relations the memo's stamps read.
type keyScratch struct {
	canon  query.Canon
	consts []relation.Const
	// byConst indexes consts once a context has more than
	// linearConsts of them (the Lemma 4.2 probe of all of I); nil
	// otherwise, when a linear scan is cheaper.
	byConst map[relation.Const]query.Var
	rels    []relation.RelID
}

const linearConsts = 64

// load fills the scratch with r_{C -> t[1..i]} for the sorted context
// ids, naming variables exactly as generalize does (body tuples in id
// order, constants by first occurrence), and returns the rule's
// canonical image. ok is false when a head constant does not occur in
// the context, so the context is inadmissible.
func (s *keyScratch) load(db *relation.Database, ids []relation.TupleID, target relation.Tuple, i int) ([]byte, bool) {
	s.canon.Reset()
	s.consts, s.rels, s.byConst = s.consts[:0], s.rels[:0], nil
	for _, id := range ids {
		tu := db.Tuple(id)
		s.rels = append(s.rels, tu.Rel)
		args := s.canon.AddBody(tu.Rel, len(tu.Args))
		for ai, c := range tu.Args {
			args[ai] = query.V(s.varFor(c))
		}
	}
	head := s.canon.SetHead(target.Rel, i)
	for ai := range head {
		v, ok := s.varOf(target.Args[ai])
		if !ok {
			return nil, false
		}
		head[ai] = query.V(v)
	}
	return s.canon.Canonicalize(), true
}

// varOf returns the variable constant c was generalized to.
func (s *keyScratch) varOf(c relation.Const) (query.Var, bool) {
	if s.byConst != nil {
		v, ok := s.byConst[c]
		return v, ok
	}
	for v, d := range s.consts {
		if d == c {
			return query.Var(v), true
		}
	}
	return 0, false
}

// varFor returns c's variable, assigning the next fresh one on first
// sight.
func (s *keyScratch) varFor(c relation.Const) query.Var {
	if v, ok := s.varOf(c); ok {
		return v
	}
	v := query.Var(len(s.consts))
	s.consts = append(s.consts, c)
	switch {
	case s.byConst != nil:
		s.byConst[c] = v
	case len(s.consts) > linearConsts:
		s.byConst = make(map[relation.Const]query.Var, 2*len(s.consts))
		for w, d := range s.consts {
			s.byConst[d] = query.Var(w)
		}
	}
	return v
}

// prepare computes the context's canonical key in the slot's scratch
// and consults the memo.
func (a *assessor) prepare(sl *assessSlot, p *cellParams) {
	key, ok := sl.scr.load(a.ex.DB, sl.c.ids, p.target, p.i)
	if !ok {
		sl.state = slotInadmissible
		return
	}
	sl.key = key
	derived, hit := a.memo.lookup(key, sl.scr.rels, p.target.Rel, a.ex)
	if hit {
		sl.state, sl.derived = slotHit, derived
	} else {
		sl.state = slotMiss
	}
}

// evaluate generalizes a missed context, runs its rule, and stores the
// result in the memo under sl.memoKey.
func (a *assessor) evaluate(sl *assessSlot, p *cellParams) {
	rule, _ := generalize(a.ex.DB, sl.c.ids, p.target, p.i)
	var outs []relation.TupleID
	sl.derived, outs = forbiddenDerived(a.ex, rule, p.i, len(p.target.Args))
	sl.c.evals = 1
	a.memo.store(sl.memoKey, sl.scr.rels, p.target.Rel, sl.derived, outs)
}

// finish fills the context's verdict and score from the slot.
func (sl *assessSlot) finish(p *cellParams) {
	c := sl.c
	if sl.state == slotInadmissible {
		c.consistent, c.score = false, math.Inf(-1)
		return
	}
	c.memoHit = sl.state != slotMiss
	c.consistent = sl.derived == 0
	c.score = p.score(sl.derived, len(c.ids))
}

// forbiddenDerived counts the i-slices derived by rule that lie in
// the forbidden set F_i — one full evaluation of the candidate rule.
// For full-arity rules it also returns the derived output ids (in
// emission order, with multiplicity, capped at memoOutsCap) so the
// memo can revalidate the count after an example-only delta; proper
// slices have no ids and return nil.
func forbiddenDerived(ex *task.Example, rule query.Rule, i, k int) (int, []relation.TupleID) {
	derived := 0
	if i == k {
		// Full-arity heads are ground output tuples: stay on the
		// dense-id plane and test forbiddenness as a bitset probe.
		outs := make([]relation.TupleID, 0, 16)
		eval.EvalRuleIDs(rule, ex.DB, func(id relation.TupleID) bool {
			if ex.IsNegativeID(id) {
				derived++
			}
			if outs != nil {
				if len(outs) < memoOutsCap {
					outs = append(outs, id)
				} else {
					outs = nil
				}
			}
			return true
		})
		return derived, outs
	}
	// A proper slice rule derives the i-slices themselves; they are
	// looked up in the example's slice index, never interned.
	eval.EvalRule(rule, ex.DB, func(t relation.Tuple) bool {
		if ex.ForbiddenPrefix(t) {
			derived++
		}
		return true
	})
	return derived, nil
}
