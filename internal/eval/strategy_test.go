package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/relation"
)

// ringDB builds a database large enough to cross the batch cost
// threshold: a ring of n nodes with edge(i, i+1), plus chord edges,
// and a unary mark relation over a third of the nodes.
func ringDB(t testing.TB, n int) (*relation.Database, relation.RelID, relation.RelID, relation.RelID) {
	t.Helper()
	s := relation.NewSchema()
	d := relation.NewDomain()
	edge := s.MustDeclare("edge", 2, relation.Input)
	mark := s.MustDeclare("mark", 1, relation.Input)
	out := s.MustDeclare("out", 2, relation.Output)
	db := relation.NewDatabase(s, d)
	nodes := make([]relation.Const, n)
	for i := range nodes {
		nodes[i] = d.Intern(fmt.Sprintf("n%03d", i))
	}
	for i := 0; i < n; i++ {
		db.Insert(relation.NewTuple(edge, nodes[i], nodes[(i+1)%n]))
		db.Insert(relation.NewTuple(edge, nodes[i], nodes[(i+7)%n]))
		if i%3 == 0 {
			db.Insert(relation.NewTuple(mark, nodes[i]))
		}
	}
	return db, edge, mark, out
}

func twoHop(edge, out relation.RelID) query.Rule {
	x, y, z := query.V(0), query.V(1), query.V(2)
	return query.Rule{
		Head: query.Literal{Rel: out, Args: []query.Term{x, y}},
		Body: []query.Literal{
			{Rel: edge, Args: []query.Term{x, z}},
			{Rel: edge, Args: []query.Term{z, y}},
		},
	}
}

func TestPickStrategyHeuristic(t *testing.T) {
	big, edge, mark, out := ringDB(t, 200) // 400 edges + 67 marks
	x := query.V(0)
	cases := []struct {
		name string
		db   *relation.Database
		rule query.Rule
		want string
	}{
		{"large-join", big, twoHop(edge, out), "batch"},
		{"single-literal", big, query.Rule{
			Head: query.Literal{Rel: out, Args: []query.Term{x, x}},
			Body: []query.Literal{{Rel: mark, Args: []query.Term{x}}},
		}, "backtrack"},
	}
	// A paper-scale database stays under the threshold.
	small, sedge, _, sout := ringDB(t, 20)
	cases = append(cases, struct {
		name string
		db   *relation.Database
		rule query.Rule
		want string
	}{"small-join", small, twoHop(sedge, sout), "backtrack"})

	for _, c := range cases {
		var p plan
		p.compute(c.rule, c.db)
		if got := pickStrategy(&p).name(); got != c.want {
			t.Errorf("%s: strategy %s, want %s (totalExtent=%d)", c.name, got, c.want, p.totalExtent)
		}
	}
}

func TestForceStrategyOverridesAndRestores(t *testing.T) {
	db, edge, _, out := ringDB(t, 20) // small: heuristic says backtrack
	var p plan
	p.compute(twoHop(edge, out), db)
	restore := ForceStrategy(StrategyBatch)
	if got := pickStrategy(&p).name(); got != "batch" {
		t.Errorf("forced batch but picked %s", got)
	}
	restore()
	if got := pickStrategy(&p).name(); got != "backtrack" {
		t.Errorf("restore did not undo the override: picked %s", got)
	}
}

// TestBatchMatchesNaiveDense runs the three-way differential on
// databases dense enough that the batch path is the one the heuristic
// would pick anyway, with richer rule shapes than the fuzz harness
// (semijoin chains, constants, repeated variables).
func TestBatchMatchesNaiveDense(t *testing.T) {
	db, edge, mark, out := ringDB(t, 150)
	x, y, z := query.V(0), query.V(1), query.V(2)
	c0, _ := db.Domain.Lookup("n010")
	rules := []query.Rule{
		twoHop(edge, out),
		{ // marked two-hop: semijoin filtering on both join columns
			Head: query.Literal{Rel: out, Args: []query.Term{x, y}},
			Body: []query.Literal{
				{Rel: mark, Args: []query.Term{x}},
				{Rel: edge, Args: []query.Term{x, z}},
				{Rel: edge, Args: []query.Term{z, y}},
				{Rel: mark, Args: []query.Term{y}},
			},
		},
		{ // constant anchor
			Head: query.Literal{Rel: out, Args: []query.Term{x, y}},
			Body: []query.Literal{
				{Rel: edge, Args: []query.Term{query.C(c0), x}},
				{Rel: edge, Args: []query.Term{x, y}},
			},
		},
		{ // repeated variable within a literal
			Head: query.Literal{Rel: out, Args: []query.Term{x, x}},
			Body: []query.Literal{
				{Rel: edge, Args: []query.Term{x, x}},
				{Rel: mark, Args: []query.Term{x}},
			},
		},
	}
	for ri, r := range rules {
		naive := EvalRuleNaive(r, db)
		for _, strat := range []Strategy{StrategyBacktrack, StrategyBatch} {
			restore := ForceStrategy(strat)
			got := outputTuples(r, db)
			restore()
			if len(got) != len(naive) {
				t.Fatalf("rule %d strategy %v: %d tuples, naive %d", ri, strat, len(got), len(naive))
			}
			for _, k := range naive {
				if !containsTuple(got, k) {
					t.Fatalf("rule %d strategy %v: missing %v", ri, strat, k)
				}
			}
		}
	}
}

// TestBatchMatchesNaiveRandom is TestEvalMatchesNaive with the batch
// strategy forced, so the kernel is exercised on the same shapes even
// though the instances sit far below the cost threshold.
func TestBatchMatchesNaiveRandom(t *testing.T) {
	defer ForceStrategy(StrategyBatch)()
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 500; trial++ {
		rule, db := randomInstance(rng)
		fast := outputTuples(rule, db)
		slow := EvalRuleNaive(rule, db)
		if len(fast) != len(slow) {
			t.Fatalf("trial %d: batch=%d naive=%d for rule %s",
				trial, len(fast), len(slow), rule.String(db.Schema, db.Domain))
		}
		for _, k := range slow {
			if !containsTuple(fast, k) {
				t.Fatalf("trial %d: batch missing tuple present in naive", trial)
			}
		}
	}
}

// TestEvalRuleDeltaRestricts pins the semi-naive primitive: with one
// body literal pinned to a delta set, only instantiations using a
// delta tuple at that position may be derived, and the union over
// positions recovers the unrestricted output.
func TestEvalRuleDeltaRestricts(t *testing.T) {
	db, edge, _, out := ringDB(t, 30)
	r := twoHop(edge, out)
	full := RuleOutputIDs(r, db)

	// Delta = a single edge tuple; position 0 (edge(x,z)) restricted.
	extent := db.Extent(edge)
	delta := &relation.TupleSet{}
	delta.Add(extent[0])
	firstHop := db.TupleByID(extent[0])

	got := &relation.TupleSet{}
	EvalRuleDelta(r, db, 0, delta, func(id relation.TupleID) bool {
		got.Add(id)
		return true
	})
	if got.Empty() {
		t.Fatal("restricted evaluation derived nothing")
	}
	if !got.SubsetOf(full) {
		t.Fatal("restricted evaluation derived tuples outside the full output")
	}
	got.Iterate(func(id relation.TupleID) bool {
		if db.TupleByID(id).Args[0] != firstHop.Args[0] {
			t.Errorf("derived %v does not use the delta tuple at literal 0", db.TupleByID(id))
			return false
		}
		return true
	})

	// Union over both positions with delta = whole extent must equal
	// the unrestricted output.
	all := &relation.TupleSet{}
	for _, id := range extent {
		all.Add(id)
	}
	union := &relation.TupleSet{}
	for li := range r.Body {
		EvalRuleDelta(r, db, li, all, func(id relation.TupleID) bool {
			union.Add(id)
			return true
		})
	}
	if !union.Equal(full) {
		t.Fatalf("union over delta positions has %d tuples, full output %d", union.Len(), full.Len())
	}
}

// TestStrategyCountersTick checks the trace counters: batch and
// backtracking sessions tick their respective counters (only while
// pool tracing is enabled), and batch sessions advance the frontier
// high-water mark.
func TestStrategyCountersTick(t *testing.T) {
	db, edge, _, out := ringDB(t, 100)
	r := twoHop(edge, out)

	b0, k0, _ := StrategyCounters()
	RuleOutputIDs(r, db) // tracing off: nothing may tick
	if b1, k1, _ := StrategyCounters(); b1 != b0 || k1 != k0 {
		t.Fatal("strategy counters ticked while tracing was disabled")
	}

	EnablePoolTracing()
	defer DisablePoolTracing()

	restore := ForceStrategy(StrategyBatch)
	RuleOutputIDs(r, db)
	restore()
	b1, _, hw := StrategyCounters()
	if b1 != b0+1 {
		t.Fatalf("batch counter %d, want %d", b1, b0+1)
	}
	if hw == 0 {
		t.Fatal("batch session left frontier high-water at zero")
	}

	restore = ForceStrategy(StrategyBacktrack)
	RuleOutputIDs(r, db)
	restore()
	if _, k1, _ := StrategyCounters(); k1 != k0+1 {
		t.Fatalf("backtrack counter %d, want %d", k1, k0+1)
	}
}
