package eval

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/relation"
)

// pathFixture builds the classic two-hop reachability fixture:
// edge(a,b), edge(b,c), edge(c,d), edge(b,d), color(a).
func pathFixture(t *testing.T) (*relation.Database, relation.RelID, relation.RelID, relation.RelID, map[string]relation.Const) {
	t.Helper()
	s := relation.NewSchema()
	d := relation.NewDomain()
	edge := s.MustDeclare("edge", 2, relation.Input)
	color := s.MustDeclare("color", 1, relation.Input)
	path := s.MustDeclare("path", 2, relation.Output)
	db := relation.NewDatabase(s, d)
	cs := map[string]relation.Const{}
	for _, n := range []string{"a", "b", "c", "d"} {
		cs[n] = d.Intern(n)
	}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"b", "d"}} {
		db.Insert(relation.NewTuple(edge, cs[e[0]], cs[e[1]]))
	}
	db.Insert(relation.NewTuple(color, cs["a"]))
	return db, edge, color, path, cs
}

func twoHopRule(edge, path relation.RelID) query.Rule {
	return query.Rule{
		Head: query.Literal{Rel: path, Args: []query.Term{query.V(0), query.V(1)}},
		Body: []query.Literal{
			{Rel: edge, Args: []query.Term{query.V(0), query.V(2)}},
			{Rel: edge, Args: []query.Term{query.V(2), query.V(1)}},
		},
	}
}

func TestEvalTwoHop(t *testing.T) {
	db, edge, _, path, cs := pathFixture(t)
	got := outputTuples(twoHopRule(edge, path), db)
	want := []relation.Tuple{
		relation.NewTuple(path, cs["a"], cs["c"]),
		relation.NewTuple(path, cs["a"], cs["d"]),
		relation.NewTuple(path, cs["b"], cs["d"]),
	}
	if len(got) != len(want) {
		t.Fatalf("got %d outputs, want %d", len(got), len(want))
	}
	for _, w := range want {
		if !containsTuple(got, w) {
			t.Errorf("missing %v", w.String(db.Schema, db.Domain))
		}
	}
}

func TestEvalConstantInBody(t *testing.T) {
	db, edge, _, path, cs := pathFixture(t)
	// path(x, y) :- edge(x, y), edge(b, y): pairs whose target b points to.
	r := query.Rule{
		Head: query.Literal{Rel: path, Args: []query.Term{query.V(0), query.V(1)}},
		Body: []query.Literal{
			{Rel: edge, Args: []query.Term{query.V(0), query.V(1)}},
			{Rel: edge, Args: []query.Term{query.C(cs["b"]), query.V(1)}},
		},
	}
	got := outputTuples(r, db)
	// edge targets of b are c and d; edges into c: (b,c); into d: (c,d),(b,d).
	if len(got) != 3 {
		t.Fatalf("got %d outputs, want 3: %v", len(got), got)
	}
}

func TestEvalRepeatedVariableInLiteral(t *testing.T) {
	s := relation.NewSchema()
	d := relation.NewDomain()
	edge := s.MustDeclare("edge", 2, relation.Input)
	out := s.MustDeclare("self", 1, relation.Output)
	db := relation.NewDatabase(s, d)
	a, b := d.Intern("a"), d.Intern("b")
	db.Insert(relation.NewTuple(edge, a, a))
	db.Insert(relation.NewTuple(edge, a, b))
	r := query.Rule{
		Head: query.Literal{Rel: out, Args: []query.Term{query.V(0)}},
		Body: []query.Literal{{Rel: edge, Args: []query.Term{query.V(0), query.V(0)}}},
	}
	got := outputTuples(r, db)
	if len(got) != 1 {
		t.Fatalf("got %d outputs, want 1", len(got))
	}
	if !containsTuple(got, relation.NewTuple(out, a)) {
		t.Error("missing self(a)")
	}
}

func TestEvalEmptyBodyGroundHead(t *testing.T) {
	db, _, _, path, cs := pathFixture(t)
	r := query.Rule{
		Head: query.Literal{Rel: path, Args: []query.Term{query.C(cs["a"]), query.C(cs["b"])}},
	}
	got := outputTuples(r, db)
	if len(got) != 1 {
		t.Fatalf("ground fact rule: got %d outputs, want 1", len(got))
	}
}

func TestEvalUnsafeRuleDerivesNothing(t *testing.T) {
	db, edge, _, path, _ := pathFixture(t)
	r := query.Rule{
		Head: query.Literal{Rel: path, Args: []query.Term{query.V(0), query.V(9)}},
		Body: []query.Literal{{Rel: edge, Args: []query.Term{query.V(0), query.V(1)}}},
	}
	if got := outputTuples(r, db); len(got) != 0 {
		t.Errorf("unsafe rule derived %d tuples", len(got))
	}
}

func TestEvalEarlyStop(t *testing.T) {
	db, edge, _, path, _ := pathFixture(t)
	count := 0
	EvalRule(twoHopRule(edge, path), db, func(relation.Tuple) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop yielded %d tuples, want 1", count)
	}
}

func TestDerives(t *testing.T) {
	db, edge, _, path, cs := pathFixture(t)
	r := twoHopRule(edge, path)
	if !Derives(r, db, relation.NewTuple(path, cs["a"], cs["c"])) {
		t.Error("Derives(a,c) = false, want true")
	}
	if Derives(r, db, relation.NewTuple(path, cs["a"], cs["b"])) {
		t.Error("Derives(a,b) = true, want false")
	}
	// Wrong relation / arity.
	if Derives(r, db, relation.NewTuple(edge, cs["a"], cs["b"])) {
		t.Error("Derives on wrong relation = true")
	}
}

func TestDerivesRepeatedHeadVar(t *testing.T) {
	s := relation.NewSchema()
	d := relation.NewDomain()
	edge := s.MustDeclare("edge", 2, relation.Input)
	out := s.MustDeclare("pair", 2, relation.Output)
	db := relation.NewDatabase(s, d)
	a, b := d.Intern("a"), d.Intern("b")
	db.Insert(relation.NewTuple(edge, a, b))
	// pair(x, x) :- edge(x, y).
	r := query.Rule{
		Head: query.Literal{Rel: out, Args: []query.Term{query.V(0), query.V(0)}},
		Body: []query.Literal{{Rel: edge, Args: []query.Term{query.V(0), query.V(1)}}},
	}
	if !Derives(r, db, relation.NewTuple(out, a, a)) {
		t.Error("Derives(pair(a,a)) = false")
	}
	if Derives(r, db, relation.NewTuple(out, a, b)) {
		t.Error("Derives(pair(a,b)) = true, want false (repeated head var)")
	}
}

func TestUCQOutputsUnion(t *testing.T) {
	db, edge, color, path, cs := pathFixture(t)
	oneHop := query.Rule{
		Head: query.Literal{Rel: path, Args: []query.Term{query.V(0), query.V(1)}},
		Body: []query.Literal{{Rel: edge, Args: []query.Term{query.V(0), query.V(1)}}},
	}
	colored := query.Rule{
		Head: query.Literal{Rel: path, Args: []query.Term{query.V(0), query.V(0)}},
		Body: []query.Literal{{Rel: color, Args: []query.Term{query.V(0)}}},
	}
	got := resolveSorted(db, UCQOutputIDs(query.UCQ{Rules: []query.Rule{oneHop, colored}}, db))
	// 4 edges + path(a,a).
	if len(got) != 5 {
		t.Fatalf("union size = %d, want 5", len(got))
	}
	if !containsTuple(got, relation.NewTuple(path, cs["a"], cs["a"])) {
		t.Error("missing path(a,a) from second disjunct")
	}
}

// randomInstance builds a random database and a random safe rule over
// it for differential testing.
func randomInstance(rng *rand.Rand) (query.Rule, *relation.Database) {
	s := relation.NewSchema()
	d := relation.NewDomain()
	nRel := 1 + rng.Intn(3)
	rels := make([]relation.RelID, nRel)
	for i := range rels {
		rels[i] = s.MustDeclare(string(rune('p'+i)), 1+rng.Intn(3), relation.Input)
	}
	out := s.MustDeclare("out", 1+rng.Intn(2), relation.Output)
	nConst := 2 + rng.Intn(4)
	consts := make([]relation.Const, nConst)
	for i := range consts {
		consts[i] = d.Intern(string(rune('a' + i)))
	}
	db := relation.NewDatabase(s, d)
	nTuples := rng.Intn(12)
	for i := 0; i < nTuples; i++ {
		r := rels[rng.Intn(nRel)]
		args := make([]relation.Const, s.Arity(r))
		for j := range args {
			args[j] = consts[rng.Intn(nConst)]
		}
		db.Insert(relation.Tuple{Rel: r, Args: args})
	}
	nVars := 1 + rng.Intn(4)
	nBody := 1 + rng.Intn(3)
	body := make([]query.Literal, nBody)
	for i := range body {
		r := rels[rng.Intn(nRel)]
		args := make([]query.Term, s.Arity(r))
		for j := range args {
			if rng.Intn(5) == 0 {
				args[j] = query.C(consts[rng.Intn(nConst)])
			} else {
				args[j] = query.V(query.Var(rng.Intn(nVars)))
			}
		}
		body[i] = query.Literal{Rel: r, Args: args}
	}
	// Build a safe head from variables that occur in the body.
	var bodyVars []query.Var
	seen := map[query.Var]bool{}
	for _, l := range body {
		for _, t := range l.Args {
			if !t.IsConst && !seen[t.Var] {
				seen[t.Var] = true
				bodyVars = append(bodyVars, t.Var)
			}
		}
	}
	headArgs := make([]query.Term, s.Arity(out))
	for j := range headArgs {
		if len(bodyVars) == 0 || rng.Intn(6) == 0 {
			headArgs[j] = query.C(consts[rng.Intn(nConst)])
		} else {
			headArgs[j] = query.V(bodyVars[rng.Intn(len(bodyVars))])
		}
	}
	rule := query.Rule{
		Head: query.Literal{Rel: out, Args: headArgs},
		Body: body,
	}
	return rule, db
}

// TestEvalMatchesNaive differentially tests the indexed evaluator
// against the reference nested-loop evaluator on random instances.
func TestEvalMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		rule, db := randomInstance(rng)
		fast := outputTuples(rule, db)
		slow := EvalRuleNaive(rule, db)
		if len(fast) != len(slow) {
			t.Fatalf("trial %d: fast=%d slow=%d for rule %s",
				trial, len(fast), len(slow), rule.String(db.Schema, db.Domain))
		}
		for _, k := range slow {
			if !containsTuple(fast, k) {
				t.Fatalf("trial %d: fast missing tuple present in naive", trial)
			}
		}
	}
}

// TestDerivesMatchesOutputs checks Derives against full evaluation on
// random instances: Derives(r, db, t) iff t in RuleOutputIDs(r, db),
// for tuples both in and out of the output set.
func TestDerivesMatchesOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		rule, db := randomInstance(rng)
		outs := outputTuples(rule, db)
		for _, tu := range outs {
			if !Derives(rule, db, tu) {
				t.Fatalf("trial %d: output tuple not Derive-able", trial)
			}
		}
		// Probe some random tuples of the head relation.
		arity := len(rule.Head.Args)
		for probe := 0; probe < 5; probe++ {
			args := make([]relation.Const, arity)
			for j := range args {
				args[j] = relation.Const(rng.Intn(db.Domain.Size() + 1))
			}
			tu := relation.Tuple{Rel: rule.Head.Rel, Args: args}
			inSet := containsTuple(outs, tu)
			if Derives(rule, db, tu) != inSet {
				t.Fatalf("trial %d: Derives disagrees with output set on %v", trial, tu)
			}
		}
	}
}

func TestPlanOrderCoversAllLiterals(t *testing.T) {
	db, edge, color, path, _ := pathFixture(t)
	r := query.Rule{
		Head: query.Literal{Rel: path, Args: []query.Term{query.V(0), query.V(1)}},
		Body: []query.Literal{
			{Rel: edge, Args: []query.Term{query.V(0), query.V(2)}},
			{Rel: color, Args: []query.Term{query.V(0)}},
			{Rel: edge, Args: []query.Term{query.V(2), query.V(1)}},
		},
	}
	order := planLiteralOrder(r, db)
	if len(order) != 3 {
		t.Fatalf("plan covers %d literals, want 3", len(order))
	}
	seen := map[int]bool{}
	for _, i := range order {
		if seen[i] {
			t.Fatalf("plan repeats literal %d", i)
		}
		seen[i] = true
	}
	// The first planned literal should be the smallest extent (color)
	// since nothing is bound yet.
	if r.Body[order[0]].Rel != color {
		t.Errorf("plan starts with %v, want the color literal", r.Body[order[0]])
	}
}

// outputTuples resolves RuleOutputIDs to tuples in Compare order, the
// container the naive oracle returns.
func outputTuples(r query.Rule, db *relation.Database) []relation.Tuple {
	return resolveSorted(db, RuleOutputIDs(r, db))
}

// resolveSorted resolves an id set to its tuples in Compare order.
func resolveSorted(db *relation.Database, ids *relation.TupleSet) []relation.Tuple {
	out := make([]relation.Tuple, 0, ids.Len())
	ids.Iterate(func(id relation.TupleID) bool {
		out = append(out, db.TupleByID(id))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// containsTuple reports whether t occurs in ts.
func containsTuple(ts []relation.Tuple, t relation.Tuple) bool {
	for _, u := range ts {
		if u.Equal(t) {
			return true
		}
	}
	return false
}
