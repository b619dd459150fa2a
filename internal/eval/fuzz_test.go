package eval_test

import (
	"sort"
	"strings"
	"testing"

	"github.com/egs-synthesis/egs/internal/datagen/family"
	"github.com/egs-synthesis/egs/internal/eval"

	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/relation"
	"github.com/egs-synthesis/egs/internal/task"
)

// fuzzDecoder turns an arbitrary byte string into a bounded stream of
// small integers, defaulting to zero once exhausted.
type fuzzDecoder struct {
	data []byte
	pos  int
}

func (d *fuzzDecoder) next(bound int) int {
	if bound <= 0 {
		return 0
	}
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return int(b) % bound
}

// fuzzCase decodes a database, a safe rule, and a batch of overlay
// tuples (facts to land in a post-freeze generation) from fuzz input.
func fuzzCase(data []byte) (*relation.Database, query.Rule, []relation.Tuple, bool) {
	d := &fuzzDecoder{data: data}
	s := relation.NewSchema()
	dom := relation.NewDomain()
	inputs := []relation.RelID{
		s.MustDeclare("attr", 1, relation.Input),
		s.MustDeclare("edge", 2, relation.Input),
		s.MustDeclare("tri", 3, relation.Input),
	}
	headArity := 1 + d.next(3)
	out := s.MustDeclare("out", headArity, relation.Output)

	nConst := 2 + d.next(5)
	consts := make([]relation.Const, nConst)
	for i := range consts {
		consts[i] = dom.Intern(string(rune('a' + i)))
	}
	randTuple := func() relation.Tuple {
		rel := inputs[d.next(len(inputs))]
		args := make([]relation.Const, s.Arity(rel))
		for j := range args {
			args[j] = consts[d.next(nConst)]
		}
		return relation.Tuple{Rel: rel, Args: args}
	}
	db := relation.NewDatabase(s, dom)
	nTuples := d.next(13)
	for i := 0; i < nTuples; i++ {
		db.Insert(randTuple())
	}

	nBody := 1 + d.next(3)
	maxVars := 1 + d.next(5)
	r := query.Rule{Head: query.Literal{Rel: out}}
	var bodyVars []query.Var
	seenVar := make(map[query.Var]bool)
	for i := 0; i < nBody; i++ {
		rel := inputs[d.next(len(inputs))]
		lit := query.Literal{Rel: rel, Args: make([]query.Term, s.Arity(rel))}
		for j := range lit.Args {
			if d.next(5) == 0 {
				lit.Args[j] = query.C(consts[d.next(nConst)])
				continue
			}
			v := query.Var(d.next(maxVars))
			lit.Args[j] = query.V(v)
			if !seenVar[v] {
				seenVar[v] = true
				bodyVars = append(bodyVars, v)
			}
		}
		r.Body = append(r.Body, lit)
	}
	if len(bodyVars) == 0 {
		return nil, query.Rule{}, nil, false // all-constant body cannot build a safe head
	}
	r.Head.Args = make([]query.Term, headArity)
	for j := range r.Head.Args {
		r.Head.Args[j] = query.V(bodyVars[d.next(len(bodyVars))])
	}
	overlay := make([]relation.Tuple, d.next(5))
	for i := range overlay {
		overlay[i] = randTuple()
	}
	return db, r, overlay, true
}

// resolvedOutputs resolves RuleOutputIDs to tuples in Compare order,
// the container the naive oracle returns.
func resolvedOutputs(r query.Rule, db *relation.Database) []relation.Tuple {
	var out []relation.Tuple
	eval.RuleOutputIDs(r, db).Iterate(func(id relation.TupleID) bool {
		out = append(out, db.TupleByID(id))
		return true
	})
	sortTuples(out)
	return out
}

// tupleOutputs collects the tuple path (EvalRule) in Compare order.
func tupleOutputs(r query.Rule, db *relation.Database) []relation.Tuple {
	var out []relation.Tuple
	eval.EvalRule(r, db, func(t relation.Tuple) bool {
		out = append(out, t)
		return true
	})
	sortTuples(out)
	return out
}

func sortTuples(ts []relation.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

// checkEquivalence compares the naive oracle against the indexed
// tuple path and the dense-id path, with the join strategy pinned to
// backtracking and then to batch.
func checkEquivalence(t *testing.T, db *relation.Database, r query.Rule, stage string) {
	t.Helper()
	naive := eval.EvalRuleNaive(r, db)
	for _, strat := range []eval.Strategy{eval.StrategyBacktrack, eval.StrategyBatch} {
		restore := eval.ForceStrategy(strat)
		tuples := tupleOutputs(r, db)
		indexed := resolvedOutputs(r, db)
		restore()

		for _, got := range [][]relation.Tuple{tuples, indexed} {
			if len(naive) != len(got) {
				t.Fatalf("[%s/%s] naive derives %d tuples, indexed derives %d\nrule: %s",
					stage, strat, len(naive), len(got), r.String(db.Schema, db.Domain))
			}
			for i := range naive {
				if naive[i].Compare(got[i]) != 0 {
					t.Fatalf("[%s/%s] naive and indexed outputs diverge\nrule: %s",
						stage, strat, r.String(db.Schema, db.Domain))
				}
			}
		}
	}
}

// FuzzEvalEquivalence differentially tests the evaluation paths: the
// indexed tuple-path evaluator (EvalRule), the dense-id path
// (RuleOutputIDs), and the unoptimized nested-loop
// oracle (EvalRuleNaive) — each indexed path forced through both the
// backtracking and the batch join strategy. All must derive exactly
// the same set of output tuples on every input, both on the base
// database and again after a post-freeze generation overlay lands
// more facts (exercising the columnar caches' stamp invalidation).
func FuzzEvalEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{2, 4, 9, 1, 0, 1, 2, 0, 1, 1, 2, 2, 0, 3, 1, 2, 0, 2, 1, 1, 0, 2})
	f.Add([]byte{0, 3, 12, 2, 1, 0, 2, 1, 1, 2, 2, 1, 0, 0, 1, 2, 3, 4, 2, 2, 1, 1, 0, 0, 3})
	f.Add([]byte{1, 3, 11, 2, 1, 0, 2, 1, 1, 2, 2, 1, 0, 0, 1, 2, 3, 4, 2, 2, 1, 1, 0, 0, 3,
		4, 1, 0, 1, 2, 2, 1, 0, 3, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		db, r, overlay, ok := fuzzCase(data)
		if !ok {
			return
		}
		checkEquivalence(t, db, r, "base")
		if len(overlay) == 0 {
			return
		}
		// The id-path evaluations above froze the interning table, so
		// these inserts land in an overlay generation; every cached
		// columnar view they touch must self-invalidate.
		db.BeginGeneration()
		for _, tup := range overlay {
			db.Insert(tup)
		}
		checkEquivalence(t, db, r, "overlay")
	})
}

// TestFamilyGridEvalEquivalence drives the same differential harness
// with realistic inputs: every scenario-factory grid instance's
// intended rules over its parsed database (complements and typed
// negation included), checked on the base generation and again after
// an overlay generation lands argument-reversed copies of existing
// facts.
func TestFamilyGridEvalEquivalence(t *testing.T) {
	for _, gp := range family.DefaultGrid() {
		inst, err := family.Generate(gp.Spec, gp.Seed)
		if err != nil {
			t.Fatalf("Generate(%+v, %d): %v", gp.Spec, gp.Seed, err)
		}
		tk, err := task.Parse(strings.NewReader(inst.Content))
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		db := tk.Input
		for _, r := range tk.Intended().Rules {
			checkEquivalence(t, db, r, inst.Name+"/base")
		}

		// Overlay: reverse the argument order of a handful of binary
		// facts and re-insert them in a fresh generation, then
		// re-check every path agrees on the grown database.
		ids := db.AllIDs()
		db.BeginGeneration()
		inserted := 0
		for _, id := range ids {
			tup := db.TupleByID(id)
			if len(tup.Args) != 2 {
				continue
			}
			db.Insert(relation.Tuple{Rel: tup.Rel, Args: []relation.Const{tup.Args[1], tup.Args[0]}})
			if inserted++; inserted >= 8 {
				break
			}
		}
		if inserted == 0 {
			t.Fatalf("%s: no binary facts to overlay", inst.Name)
		}
		for _, r := range tk.Intended().Rules {
			checkEquivalence(t, db, r, inst.Name+"/overlay")
		}
	}
}
