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
// assess is safe for concurrent use; the only shared mutations are the
// memo and Database.InternTuple, both locked.
func (a *assessor) assess(c *ectx, p *cellParams) {
	sl := assessSlot{c: c}
	a.prepare(&sl, p)
	if sl.state == slotMiss {
		a.evaluate(&sl, p)
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
// prepare (generalize, canonical key, memo lookup), evaluate (misses
// only), and finish. A parallel batch runs the first two stages on the
// pool; see searcher.assessBatch.
type assessSlot struct {
	c       *ectx
	rule    query.Rule
	key     string
	derived int
	state   slotState
	first   int // slotDup: index of the batch's first miss with this key
}

// prepare generalizes the context, computes its canonical key, and
// consults the memo.
func (a *assessor) prepare(sl *assessSlot, p *cellParams) {
	rule, ok := generalize(a.ex.DB, sl.c.ids, p.target, p.i)
	if !ok {
		sl.state = slotInadmissible
		return
	}
	sl.rule, sl.key = rule, rule.CanonicalKey()
	derived, hit := a.memo.lookup(sl.key, &sl.rule, a.ex)
	if hit {
		sl.state, sl.derived = slotHit, derived
	} else {
		sl.state = slotMiss
	}
}

// evaluate runs a missed rule and stores the result in the memo.
func (a *assessor) evaluate(sl *assessSlot, p *cellParams) {
	var outs []relation.TupleID
	sl.derived, outs = forbiddenDerived(a.ex, sl.rule, p.i, len(p.target.Args))
	sl.c.evals = 1
	a.memo.store(sl.key, &sl.rule, sl.derived, outs)
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
