// Package eval implements evaluation of conjunctive queries and
// unions of conjunctive queries over an indexed database.
//
// It is the workhorse substrate of the reproduction: the EGS
// synthesizer evaluates one candidate rule per enumeration context
// (Section 4.3 of the paper), the baselines evaluate thousands of
// candidate rules, and every synthesizer's output is re-checked for
// consistency with the evaluator before being reported.
//
// Two join strategies share one planner (see strategy.go): a
// tuple-at-a-time backtracking join — literals greedily ordered so
// that bound variables come first, candidates drawn from per-column
// indexes — and a set-at-a-time batch join (batch.go) that prunes
// whole candidate sets per literal before any tuple-level unification
// runs. A per-rule cost heuristic picks between them. A deliberately
// simple reference evaluator (EvalRuleNaive) is provided for
// differential testing.
package eval

import (
	"sync"

	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/relation"
)

// Yield receives one derived head tuple. Returning false stops
// evaluation early; derived tuples are deduplicated before being
// yielded, so each distinct head tuple is reported exactly once.
type Yield func(relation.Tuple) bool

// YieldID receives one derived head tuple as a dense id from the
// database's interning table. Returning false stops evaluation early;
// each distinct head tuple is reported exactly once.
type YieldID func(relation.TupleID) bool

// EvalRule enumerates the distinct head tuples derivable from db by
// rule r, invoking yield on each. Evaluation stops early if yield
// returns false.
//
// This entry point does not touch the database's interning table, so
// it remains usable on databases that are still being inserted into
// (the fixpoint evaluator's working set).
//
// The set of yielded tuples is strategy-independent; the order in
// which they are yielded is not specified.
func EvalRule(r query.Rule, db *relation.Database, yield Yield) {
	e := newEvaluator(r, db)
	e.run(yield)
	e.release()
}

// EvalRuleIDs is EvalRule on the dense-id plane: derived head tuples
// are interned into db and yielded as TupleIDs. Deduplication is a
// bitset test, and an already-interned tuple costs no allocation.
// This is the synthesizers' hot path: one candidate rule is evaluated
// per enumeration context.
func EvalRuleIDs(r query.Rule, db *relation.Database, yield YieldID) {
	e := newEvaluator(r, db)
	e.yieldID = yield
	e.run(nil)
	e.release()
}

// EvalRuleDelta is EvalRuleIDs restricted for semi-naive fixpoint
// iteration: body literal li (an index into r.Body) matches only
// tuples in delta. The fixpoint evaluator calls it once per body
// position with the previous round's newly derived tuples, so each
// round re-derives only instantiations that use at least one frontier
// tuple. Restricted evaluations always run the backtracking strategy:
// the delta restriction already makes the literal maximally selective,
// which is precisely the regime where tuple-at-a-time wins.
func EvalRuleDelta(r query.Rule, db *relation.Database, li int, delta *relation.TupleSet, yield YieldID) {
	e := newEvaluator(r, db)
	e.yieldID = yield
	e.restrict, e.restrictLit = delta, li
	e.search(0, nil)
	e.release()
}

// RuleOutputIDs returns the set of head tuples derivable by r as a
// bitset over db's tuple ids.
func RuleOutputIDs(r query.Rule, db *relation.Database) *relation.TupleSet {
	out := &relation.TupleSet{}
	EvalRuleIDs(r, db, func(id relation.TupleID) bool {
		out.Add(id)
		return true
	})
	return out
}

// UCQOutputIDs returns the set of head tuples derivable by any rule
// of q as a bitset over db's tuple ids.
func UCQOutputIDs(q query.UCQ, db *relation.Database) *relation.TupleSet {
	out := &relation.TupleSet{}
	for _, r := range q.Rules {
		EvalRuleIDs(r, db, func(id relation.TupleID) bool {
			out.Add(id)
			return true
		})
	}
	return out
}

// Derives reports whether rule r derives exactly the tuple t. The
// head variables are pre-bound to t's constants, so this is usually
// much cheaper than a full evaluation. Pre-binding invalidates the
// plan-time bound/free split the batch strategy relies on, so Derives
// always runs the backtracking search.
func Derives(r query.Rule, db *relation.Database, t relation.Tuple) bool {
	if r.Head.Rel != t.Rel || len(r.Head.Args) != len(t.Args) {
		return false
	}
	e := newEvaluator(r, db)
	// Pre-bind head arguments; fail fast on clashes with head
	// constants or repeated head variables.
	for i, arg := range r.Head.Args {
		if arg.IsConst {
			if arg.Const != t.Args[i] {
				e.release()
				return false
			}
			continue
		}
		v := int(arg.Var)
		if e.bound[v] && e.val[v] != t.Args[i] {
			e.release()
			return false
		}
		e.bound[v] = true
		e.val[v] = t.Args[i]
	}
	found := false
	e.search(0, func(relation.Tuple) bool {
		found = true
		return false
	})
	e.release()
	return found
}

// evaluator holds the mutable state of one rule evaluation session,
// shared by both join strategies. Evaluators are pooled: the
// synthesizers run one evaluation per candidate rule in their inner
// loops, and recycling the valuation, plan, and dedup buffers keeps
// those evaluations allocation-free (see evaluatorPool).
type evaluator struct {
	rule  query.Rule
	db    *relation.Database
	plan  plan     // literal order + per-position stats (plan.go)
	strat strategy // join strategy picked for this session (strategy.go)
	val   []relation.Const
	bound []bool

	// Tuple path (EvalRule): emitted holds each distinct head tuple
	// yielded so far and seen indexes it, so a repeated derivation is
	// one probe and allocates nothing.
	seen    relation.Index
	emitted []relation.Tuple

	// newlyAt[d] is the scratch list of variables bound while matching
	// the literal at search depth d; only one match per depth is live
	// at a time, so one buffer per depth makes match allocation-free.
	newlyAt [][]query.Var

	// Semi-naive restriction (EvalRuleDelta): when restrict is non-nil
	// the body literal at index restrictLit matches only ids in it.
	restrict    *relation.TupleSet
	restrictLit int

	// Id path: yieldID non-nil selects it. Dedup is a bitset over the
	// interning table.
	yieldID YieldID
	seenIDs relation.TupleSet
	// scratch is the head-projection buffer of both paths; it is
	// reused because InternTuple and emit copy a tuple only when new.
	scratch []relation.Const

	// Batch-strategy state (batch.go): per order position, the pruned
	// candidate id lists (cand, possibly aliasing db postings; candBuf
	// holds the evaluator-owned backing), their lazily built bitset
	// forms, and per-variable value supports for semijoin filtering.
	cand       [][]relation.TupleID
	candBuf    [][]relation.TupleID
	candIsExt  []bool
	candSet    []*relation.TupleSet
	candSetOK  []bool
	unaryCS    []*relation.ConstSet // per-position ColumnConstSet, fetched once per session
	unaryCSOK  []bool
	varSup     []relation.ConstSet
	varSupOK   []bool
	frontierHW int // largest candidate-set size seen this session

	// fresh marks an evaluator straight from the pool's New (a pool
	// miss); pooltrace.go counts those. Cleared on first use.
	fresh bool
}

// evaluatorPool recycles evaluators across evaluations. The literal
// order is (re)planned per evaluation session — it depends on the rule
// and on extent sizes — but its backing array, the valuation, and the
// dedup structures are reused, so one assess costs zero steady-state
// heap allocations beyond tuples it interns.
var evaluatorPool = sync.Pool{New: func() any { return &evaluator{fresh: true} }}

func newEvaluator(r query.Rule, db *relation.Database) *evaluator {
	e := evaluatorPool.Get().(*evaluator)
	notePoolGet(e.fresh)
	e.fresh = false
	e.rule, e.db = r, db
	n := r.NumVars()
	e.val = growConsts(e.val, n)
	e.bound = resetBools(e.bound, n)
	if cap(e.newlyAt) < len(r.Body) {
		e.newlyAt = make([][]query.Var, len(r.Body))
	}
	e.newlyAt = e.newlyAt[:len(r.Body)]
	e.plan.compute(r, db)
	e.strat = pickStrategy(&e.plan)
	return e
}

// release returns the evaluator to the pool. Callers must not touch
// the evaluator afterwards; reference-typed fields that could pin
// caller memory are cleared here.
func (e *evaluator) release() {
	e.rule = query.Rule{}
	e.db = nil
	e.yieldID = nil
	e.restrict = nil
	e.strat = nil
	for i := range e.cand {
		e.cand[i] = nil // may alias db posting lists
	}
	for i := range e.unaryCS {
		e.unaryCS[i] = nil // aliases db column const-set views
	}
	e.seen.Reset()
	clear(e.emitted) // yielded tuples belong to the caller now
	e.emitted = e.emitted[:0]
	e.seenIDs.Reset()
	notePoolRelease()
	evaluatorPool.Put(e)
}

// planLiteralOrder returns the greedy join order for r's body as a
// fresh slice, for callers (provenance search) outside the pooled
// evaluator hot path. It plans on a throwaway plan value rather than
// borrowing a pooled evaluator, so provenance replay does not churn
// the pool that the assess loop is warming.
func planLiteralOrder(r query.Rule, db *relation.Database) []int {
	var p plan
	p.compute(r, db)
	return p.order
}

// growConsts returns a buffer of length n, reusing capacity.
func growConsts(b []relation.Const, n int) []relation.Const {
	if cap(b) < n {
		return make([]relation.Const, n)
	}
	return b[:n]
}

// resetBools returns an all-false buffer of length n, reusing capacity.
func resetBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

func (e *evaluator) run(yield Yield) {
	e.strat.run(e, yield)
}

// search extends the current partial valuation over body literals
// order[i:]. It returns false when the caller asked to stop.
func (e *evaluator) search(i int, yield Yield) bool {
	if i == len(e.plan.order) {
		return e.emit(yield)
	}
	li := e.plan.order[i]
	lit := e.rule.Body[li]
	restricted := e.restrict != nil && li == e.restrictLit
	for _, id := range e.candidates(lit) {
		if restricted && !e.restrict.Has(id) {
			continue
		}
		tup := e.db.Tuple(id)
		newly, ok := e.match(lit, tup, i)
		if !ok {
			continue
		}
		cont := e.search(i+1, yield)
		for _, v := range newly {
			e.bound[v] = false
		}
		if !cont {
			return false
		}
	}
	return true
}

// candidates returns the tuple ids to try for the literal under the
// current partial valuation, using the most selective single-column
// index available, or the full extent when nothing is bound.
func (e *evaluator) candidates(lit query.Literal) []relation.TupleID {
	bestCol, bestConst := -1, relation.Const(0)
	bestLen := -1
	for col, t := range lit.Args {
		var c relation.Const
		switch {
		case t.IsConst:
			c = t.Const
		case e.bound[t.Var]:
			c = e.val[t.Var]
		default:
			continue
		}
		l := len(e.db.AtColumn(lit.Rel, col, c))
		if bestLen == -1 || l < bestLen {
			bestCol, bestConst, bestLen = col, c, l
		}
	}
	if bestCol == -1 {
		return e.db.Extent(lit.Rel)
	}
	return e.db.AtColumn(lit.Rel, bestCol, bestConst)
}

// match unifies the literal's arguments with the tuple under the
// current valuation. On success it returns the variables newly bound
// (so the caller can undo them) and true; on failure it undoes its own
// bindings and returns false. depth selects the per-depth scratch
// buffer for the newly-bound list, so matching never allocates.
func (e *evaluator) match(lit query.Literal, tup relation.Tuple, depth int) ([]query.Var, bool) {
	if len(lit.Args) != len(tup.Args) {
		return nil, false
	}
	newly := e.newlyAt[depth][:0]
	defer func() { e.newlyAt[depth] = newly[:0] }()
	for i, t := range lit.Args {
		c := tup.Args[i]
		if t.IsConst {
			if t.Const != c {
				e.undo(newly)
				return nil, false
			}
			continue
		}
		v := int(t.Var)
		if e.bound[v] {
			if e.val[v] != c {
				e.undo(newly)
				return nil, false
			}
			continue
		}
		e.bound[v] = true
		e.val[v] = c
		newly = append(newly, t.Var)
	}
	return newly, true
}

func (e *evaluator) undo(vars []query.Var) {
	for _, v := range vars {
		e.bound[v] = false
	}
}

// emit projects the current valuation onto the head and yields the
// resulting tuple (or its id) if it has not been produced before.
func (e *evaluator) emit(yield Yield) bool {
	if e.yieldID != nil {
		return e.emitID()
	}
	e.scratch = growConsts(e.scratch, len(e.rule.Head.Args))
	if !e.project(e.scratch) {
		return true
	}
	// The index keys the new id by the scratch projection, and the
	// copy appended under that id is what later probes compare with.
	key := relation.Tuple{Rel: e.rule.Head.Rel, Args: e.scratch}
	if _, added := e.seen.Insert(key, int32(len(e.emitted)), e.emittedAt); !added {
		return true
	}
	t := relation.NewTupleCopy(e.rule.Head.Rel, e.scratch)
	e.emitted = append(e.emitted, t)
	return yield(t)
}

func (e *evaluator) emittedAt(id int32) relation.Tuple { return e.emitted[id] }

// project fills args (sized to the head) with the head tuple's args
// under the current valuation. It reports false for an unsafe rule whose
// head variable the body leaves unbound: such rules derive nothing
// (Rule.Safe rejects them earlier; this is a defensive guard).
func (e *evaluator) project(args []relation.Const) bool {
	for i, t := range e.rule.Head.Args {
		if t.IsConst {
			args[i] = t.Const
			continue
		}
		if !e.bound[t.Var] {
			return false
		}
		args[i] = e.val[t.Var]
	}
	return true
}

// emitID is the id-path emit: intern the projected head tuple and
// yield its dense id, deduplicating via bitset.
func (e *evaluator) emitID() bool {
	e.scratch = growConsts(e.scratch, len(e.rule.Head.Args))
	if !e.project(e.scratch) {
		return true
	}
	id := e.db.InternTuple(relation.Tuple{Rel: e.rule.Head.Rel, Args: e.scratch})
	if !e.seenIDs.Add(id) {
		return true
	}
	return e.yieldID(id)
}
