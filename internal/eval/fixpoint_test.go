package eval

import (
	"math/rand"
	"testing"

	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/relation"
)

// chainDB builds edge facts forming a path a0 -> a1 -> ... -> a(n-1),
// plus the closure relation declaration.
func chainDB(t *testing.T, n int) (*relation.Database, relation.RelID, relation.RelID, []relation.Const) {
	t.Helper()
	s := relation.NewSchema()
	d := relation.NewDomain()
	edge := s.MustDeclare("edge", 2, relation.Input)
	closure := s.MustDeclare("closure", 2, relation.Output)
	db := relation.NewDatabase(s, d)
	nodes := make([]relation.Const, n)
	for i := range nodes {
		nodes[i] = d.Intern(string(rune('a' + i)))
	}
	for i := 0; i+1 < n; i++ {
		db.Insert(relation.NewTuple(edge, nodes[i], nodes[i+1]))
	}
	return db, edge, closure, nodes
}

func TestFixpointTransitiveClosureChain(t *testing.T) {
	db, edge, closure, nodes := chainDB(t, 6)
	out, err := FixpointUCQ(TransitiveClosureRules(edge, closure), db)
	if err != nil {
		t.Fatal(err)
	}
	// A path of 6 nodes has 5+4+3+2+1 = 15 closure pairs.
	if len(out) != 15 {
		t.Fatalf("closure size = %d, want 15", len(out))
	}
	if !containsTuple(out, relation.NewTuple(closure, nodes[0], nodes[5])) {
		t.Error("endpoint pair missing from closure")
	}
	if containsTuple(out, relation.NewTuple(closure, nodes[5], nodes[0])) {
		t.Error("reversed pair wrongly derived")
	}
}

func TestFixpointCycle(t *testing.T) {
	s := relation.NewSchema()
	d := relation.NewDomain()
	edge := s.MustDeclare("edge", 2, relation.Input)
	closure := s.MustDeclare("closure", 2, relation.Output)
	db := relation.NewDatabase(s, d)
	a, b, c := d.Intern("a"), d.Intern("b"), d.Intern("c")
	db.Insert(relation.NewTuple(edge, a, b))
	db.Insert(relation.NewTuple(edge, b, c))
	db.Insert(relation.NewTuple(edge, c, a))
	out, err := FixpointUCQ(TransitiveClosureRules(edge, closure), db)
	if err != nil {
		t.Fatal(err)
	}
	// Full 3x3 closure on a cycle; termination despite recursion.
	if len(out) != 9 {
		t.Fatalf("cycle closure size = %d, want 9", len(out))
	}
}

func TestFixpointNonRecursiveAgreesWithUCQOutputs(t *testing.T) {
	// On non-recursive programs the fixpoint must coincide with
	// plain UCQ evaluation.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		rule, db := randomInstance(rng)
		q := query.UCQ{Rules: []query.Rule{rule}}
		want := resolveSorted(db, UCQOutputIDs(q, db))
		got, err := FixpointUCQ(q, db)
		if err != nil {
			// randomInstance can produce rules whose head is unsafe
			// for Fixpoint validation only if unsafe; skip those.
			if rule.Safe() != nil {
				continue
			}
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: fixpoint=%d plain=%d", trial, len(got), len(want))
		}
		for _, k := range want {
			if !containsTuple(got, k) {
				t.Fatalf("trial %d: fixpoint missing tuple", trial)
			}
		}
	}
}

func TestFixpointMutualRecursion(t *testing.T) {
	// even(x) :- zero(x).
	// even(y) :- odd(x), succ(x, y).
	// odd(y)  :- even(x), succ(x, y).
	s := relation.NewSchema()
	d := relation.NewDomain()
	zero := s.MustDeclare("zero", 1, relation.Input)
	succ := s.MustDeclare("succ", 2, relation.Input)
	even := s.MustDeclare("even", 1, relation.Output)
	odd := s.MustDeclare("odd", 1, relation.Output)
	db := relation.NewDatabase(s, d)
	const n = 8
	nums := make([]relation.Const, n)
	for i := range nums {
		nums[i] = d.Intern(string(rune('0' + i)))
	}
	db.Insert(relation.NewTuple(zero, nums[0]))
	for i := 0; i+1 < n; i++ {
		db.Insert(relation.NewTuple(succ, nums[i], nums[i+1]))
	}
	x, y := query.V(0), query.V(1)
	q := query.UCQ{Rules: []query.Rule{
		{Head: query.Literal{Rel: even, Args: []query.Term{x}},
			Body: []query.Literal{{Rel: zero, Args: []query.Term{x}}}},
		{Head: query.Literal{Rel: even, Args: []query.Term{y}},
			Body: []query.Literal{
				{Rel: odd, Args: []query.Term{x}},
				{Rel: succ, Args: []query.Term{x, y}}}},
		{Head: query.Literal{Rel: odd, Args: []query.Term{y}},
			Body: []query.Literal{
				{Rel: even, Args: []query.Term{x}},
				{Rel: succ, Args: []query.Term{x, y}}}},
	}}
	out, err := FixpointUCQ(q, db)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rel := even
		if i%2 == 1 {
			rel = odd
		}
		if !containsTuple(out, relation.NewTuple(rel, nums[i])) {
			t.Errorf("number %d not classified", i)
		}
		wrong := odd
		if i%2 == 1 {
			wrong = even
		}
		if containsTuple(out, relation.NewTuple(wrong, nums[i])) {
			t.Errorf("number %d classified both ways", i)
		}
	}
}

func TestFixpointRejectsInputHead(t *testing.T) {
	db, edge, _, _ := chainDB(t, 3)
	bad := query.UCQ{Rules: []query.Rule{{
		Head: query.Literal{Rel: edge, Args: []query.Term{query.V(0), query.V(1)}},
		Body: []query.Literal{{Rel: edge, Args: []query.Term{query.V(1), query.V(0)}}},
	}}}
	if _, err := FixpointUCQ(bad, db); err == nil {
		t.Error("rule deriving into an input relation accepted")
	}
}

func TestFixpointDoesNotMutateInput(t *testing.T) {
	db, edge, closure, _ := chainDB(t, 5)
	before := db.Size()
	if _, err := FixpointUCQ(TransitiveClosureRules(edge, closure), db); err != nil {
		t.Fatal(err)
	}
	if db.Size() != before {
		t.Errorf("input database grew from %d to %d", before, db.Size())
	}
}

// TestFixpointAgreesWithNaiveIteration cross-checks semi-naive
// against a brute-force naive fixpoint on random recursive programs.
func TestFixpointAgreesWithNaiveIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		s := relation.NewSchema()
		d := relation.NewDomain()
		base := s.MustDeclare("base", 2, relation.Input)
		derivedRel := s.MustDeclare("derived", 2, relation.Output)
		db := relation.NewDatabase(s, d)
		nConst := 3 + rng.Intn(3)
		consts := make([]relation.Const, nConst)
		for i := range consts {
			consts[i] = d.Intern(string(rune('a' + i)))
		}
		for i := 0; i < 3+rng.Intn(6); i++ {
			db.Insert(relation.NewTuple(base, consts[rng.Intn(nConst)], consts[rng.Intn(nConst)]))
		}
		// Random recursive program: base rule + one recursive rule
		// with random variable wiring.
		x, y, z := query.V(0), query.V(1), query.V(2)
		heads := [][]query.Term{{x, y}, {y, x}, {x, z}}
		q := query.UCQ{Rules: []query.Rule{
			{Head: query.Literal{Rel: derivedRel, Args: []query.Term{x, y}},
				Body: []query.Literal{{Rel: base, Args: []query.Term{x, y}}}},
			{Head: query.Literal{Rel: derivedRel, Args: heads[rng.Intn(len(heads))]},
				Body: []query.Literal{
					{Rel: derivedRel, Args: []query.Term{x, z}},
					{Rel: base, Args: []query.Term{z, y}}}},
		}}
		if q.Rules[1].Safe() != nil {
			continue
		}
		got, err := FixpointUCQ(q, db)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveFixpoint(q, db)
		if len(got) != len(want) {
			t.Fatalf("trial %d: semi-naive=%d naive=%d", trial, len(got), len(want))
		}
		for _, k := range want {
			if !containsTuple(got, k) {
				t.Fatalf("trial %d: semi-naive missing tuple", trial)
			}
		}
	}
}

// naiveFixpoint recomputes every rule against the whole database
// until nothing changes — the reference implementation.
func naiveFixpoint(q query.UCQ, db *relation.Database) []relation.Tuple {
	work := relation.NewDatabase(db.Schema, db.Domain)
	for _, t := range db.All() {
		work.Insert(t)
	}
	var derived []relation.Tuple
	for {
		changed := false
		for _, r := range q.Rules {
			// EvalRule, not RuleOutputIDs: the interning entry points
			// freeze the id space, and this loop keeps inserting.
			var outs []relation.Tuple
			EvalRule(r, work, func(t relation.Tuple) bool {
				outs = append(outs, t)
				return true
			})
			for _, t := range outs {
				if !containsTuple(derived, t) && !db.Contains(t) {
					derived = append(derived, t)
					work.Insert(t)
					changed = true
				}
			}
		}
		if !changed {
			return derived
		}
	}
}
