package eval

import (
	"fmt"
	"sort"

	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/relation"
)

// FixpointUCQ evaluates a possibly-recursive Datalog program: rules
// whose bodies may mention output (intensional) relations, including
// the rule's own head relation. It computes the least fixpoint by
// semi-naive iteration on the id plane: after a naive first round,
// each subsequent round evaluates every rule once per body position
// with that position restricted to the previous round's delta
// (EvalRuleDelta), so only instantiations that use at least one
// newly derived tuple are re-joined. Tuples derived in a round are
// promoted to overlay facts of the working database between rounds —
// a between-runs mutation, per the Database contract — keeping their
// interned ids, so the delta is a bitset and the frontier a plain
// slice in first-derivation order (no map iteration anywhere near
// the control flow).
//
// The EGS synthesizer itself targets the non-recursive UCQ fragment
// (the paper lists recursion as future work), but the evaluator
// substrate supports recursion so that synthesized programs can be
// composed with hand-written recursive rules — e.g. closing a learned
// edge relation transitively — and as groundwork for a recursive
// synthesizer.
//
// The input database is not modified; the result contains the
// derived intensional tuples only, in Compare order.
func FixpointUCQ(q query.UCQ, db *relation.Database) ([]relation.Tuple, error) {
	// Validate: body literals must be declared; heads must not be
	// input relations (that would amount to mutating the EDB).
	for i, r := range q.Rules {
		if db.Schema.Info(r.Head.Rel).Kind == relation.Input {
			return nil, fmt.Errorf("eval: rule %d derives into input relation %s",
				i, db.Schema.Name(r.Head.Rel))
		}
		if err := r.Safe(); err != nil {
			return nil, fmt.Errorf("eval: rule %d: %w", i, err)
		}
	}
	// Working database: a copy of db extended with derived tuples.
	// Copying keeps FixpointUCQ free of side effects on the input.
	work := relation.NewDatabase(db.Schema, db.Domain)
	for _, t := range db.All() {
		work.Insert(t)
	}
	derivedIDs := &relation.TupleSet{}

	// collect records a derived head id the first time it is seen,
	// appending it to the current frontier. Ids that are already facts
	// of work — base facts, or tuples promoted in earlier rounds — are
	// not new derivations.
	var frontier []relation.TupleID
	collect := func(id relation.TupleID) bool {
		if _, isFact := work.GenerationOf(id); isFact {
			return true
		}
		if derivedIDs.Add(id) {
			frontier = append(frontier, id)
		}
		return true
	}

	// Naive first round: evaluate every rule against the base facts.
	for _, r := range q.Rules {
		EvalRuleIDs(r, work, collect)
	}

	// Semi-naive rounds: re-derive only instantiations using at least
	// one previous-round tuple, by running each rule once per body
	// position with that position pinned to the delta. The union over
	// positions covers every instantiation touching the delta;
	// overlaps deduplicate through derivedIDs.
	for len(frontier) > 0 {
		delta := &relation.TupleSet{}
		grew := make(map[relation.RelID]bool)
		for _, id := range frontier {
			delta.Add(id)
			grew[work.TupleByID(id).Rel] = true
		}
		// Promote the frontier to facts so this round's joins see it.
		for _, id := range frontier {
			work.Insert(work.TupleByID(id))
		}
		frontier = frontier[:0]
		for _, r := range q.Rules {
			for li, lit := range r.Body {
				if !grew[lit.Rel] {
					continue
				}
				EvalRuleDelta(r, work, li, delta, collect)
			}
		}
	}
	derived := make([]relation.Tuple, 0, derivedIDs.Len())
	derivedIDs.Iterate(func(id relation.TupleID) bool {
		t := work.TupleByID(id)
		derived = append(derived, relation.Tuple{Rel: t.Rel, Args: append([]relation.Const(nil), t.Args...)})
		return true
	})
	sort.Slice(derived, func(i, j int) bool { return derived[i].Compare(derived[j]) < 0 })
	return derived, nil
}

// TransitiveClosureRules builds the textbook recursive program
//
//	closure(x, y) :- base(x, y).
//	closure(x, y) :- closure(x, z), base(z, y).
//
// over the given relations, as a convenience for composing a
// synthesized edge relation with its transitive closure.
func TransitiveClosureRules(base, closure relation.RelID) query.UCQ {
	x, y, z := query.V(0), query.V(1), query.V(2)
	return query.UCQ{Rules: []query.Rule{
		{
			Head: query.Literal{Rel: closure, Args: []query.Term{x, y}},
			Body: []query.Literal{{Rel: base, Args: []query.Term{x, y}}},
		},
		{
			Head: query.Literal{Rel: closure, Args: []query.Term{x, y}},
			Body: []query.Literal{
				{Rel: closure, Args: []query.Term{x, z}},
				{Rel: base, Args: []query.Term{z, y}},
			},
		},
	}}
}
