package egs

import (
	"context"
	"math/rand"
	"testing"

	"github.com/egs-synthesis/egs/internal/eval"
	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/relation"
	"github.com/egs-synthesis/egs/internal/task"
)

// plantedInstance builds a random database, plants a random safe
// query (one or two rules), and labels the query's exact output as
// the positive set under closed-world semantics. By construction the
// resulting task is realizable.
func plantedInstance(rng *rand.Rand) (*task.Task, query.UCQ) {
	s := relation.NewSchema()
	d := relation.NewDomain()
	nRel := 1 + rng.Intn(3)
	rels := make([]relation.RelID, nRel)
	for i := range rels {
		rels[i] = s.MustDeclare("r"+string(rune('a'+i)), 1+rng.Intn(2), relation.Input)
	}
	outArity := 1 + rng.Intn(2)
	out := s.MustDeclare("out", outArity, relation.Output)

	t := &task.Task{Name: "planted", ClosedWorld: true, Schema: s, Domain: d}
	t.Input = relation.NewDatabase(s, d)
	nConst := 3 + rng.Intn(4)
	consts := make([]relation.Const, nConst)
	for i := range consts {
		consts[i] = d.Intern(string(rune('A' + i)))
	}
	nTuples := 3 + rng.Intn(10)
	for i := 0; i < nTuples; i++ {
		r := rels[rng.Intn(nRel)]
		args := make([]relation.Const, s.Arity(r))
		for j := range args {
			args[j] = consts[rng.Intn(nConst)]
		}
		t.Input.Insert(relation.Tuple{Rel: r, Args: args})
	}

	// Plant one or two random safe rules.
	var planted query.UCQ
	nRules := 1 + rng.Intn(2)
	for ri := 0; ri < nRules; ri++ {
		nBody := 1 + rng.Intn(2)
		nVars := 1 + rng.Intn(3)
		var body []query.Literal
		var bodyVars []query.Var
		seen := map[query.Var]bool{}
		for bi := 0; bi < nBody; bi++ {
			r := rels[rng.Intn(nRel)]
			args := make([]query.Term, s.Arity(r))
			for j := range args {
				v := query.Var(rng.Intn(nVars))
				args[j] = query.V(v)
				if !seen[v] {
					seen[v] = true
					bodyVars = append(bodyVars, v)
				}
			}
			body = append(body, query.Literal{Rel: r, Args: args})
		}
		head := query.Literal{Rel: out, Args: make([]query.Term, outArity)}
		for j := range head.Args {
			head.Args[j] = query.V(bodyVars[rng.Intn(len(bodyVars))])
		}
		planted.Rules = append(planted.Rules, query.Rule{Head: head, Body: body})
	}

	// Label the planted query's output as O+.
	eval.UCQOutputIDs(planted, t.Input).Iterate(func(id relation.TupleID) bool {
		t.Pos = append(t.Pos, t.Input.TupleByID(id))
		return true
	})
	return t, planted
}

// TestSoundnessOnPlantedQueries: on instances known to be realizable
// (a planted query generated the labels), EGS must return a
// consistent program, never unsat. This exercises the full pipeline
// — slicing, unions, scoring — against the evaluator as an oracle.
func TestSoundnessOnPlantedQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	solved := 0
	for trial := 0; trial < 300; trial++ {
		tk, planted := plantedInstance(rng)
		if len(tk.Pos) == 0 {
			continue // planted query derived nothing; vacuous
		}
		if err := tk.Prepare(); err != nil {
			t.Fatal(err)
		}
		res, err := Synthesize(context.Background(), tk, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Unsat {
			t.Fatalf("trial %d: realizable instance reported unsat; planted:\n%s",
				trial, planted.String(tk.Schema, tk.Domain))
		}
		if ok, why := tk.Example().Consistent(res.Query); !ok {
			t.Fatalf("trial %d: inconsistent result (%s):\n%s\nplanted:\n%s",
				trial, why, res.Query.String(tk.Schema, tk.Domain), planted.String(tk.Schema, tk.Domain))
		}
		solved++
	}
	if solved < 200 {
		t.Fatalf("only %d/300 trials were non-vacuous; generator broken?", solved)
	}
}

// TestP1AgreesWithP2OnVerdicts: both priority functions must agree
// on realizability for random planted instances (they differ only in
// search order).
func TestP1AgreesWithP2OnVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		tk, _ := plantedInstance(rng)
		if len(tk.Pos) == 0 {
			continue
		}
		if err := tk.Prepare(); err != nil {
			t.Fatal(err)
		}
		r2, err := Synthesize(context.Background(), tk, Options{Priority: P2})
		if err != nil {
			t.Fatal(err)
		}
		r1, err := Synthesize(context.Background(), tk, Options{Priority: P1})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Unsat != r2.Unsat {
			t.Fatalf("trial %d: p1 unsat=%v, p2 unsat=%v", trial, r1.Unsat, r2.Unsat)
		}
		if r1.Unsat {
			continue
		}
		// p1 guarantees minimal size; p2 may be larger but not
		// smaller than the true minimum found by p1... p2 could find
		// a smaller union though, so compare per-instance totals
		// only loosely: both must be consistent (checked inside
		// Synthesize callers normally; re-check here).
		if ok, why := tk.Example().Consistent(r1.Query); !ok {
			t.Fatalf("trial %d: p1 inconsistent: %s", trial, why)
		}
	}
}

// TestRandomLabelsAlwaysDecided: with arbitrary (possibly
// unrealizable) labellings over a small domain, Synthesize must
// terminate with a verdict that matches a brute-force realizability
// check via Lemma 4.2 (r_{I->t} consistency per positive tuple).
func TestRandomLabelsAlwaysDecided(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 120; trial++ {
		s := relation.NewSchema()
		d := relation.NewDomain()
		p := s.MustDeclare("p", 2, relation.Input)
		out := s.MustDeclare("out", 1, relation.Output)
		tk := &task.Task{Name: "rand", ClosedWorld: true, Schema: s, Domain: d}
		tk.Input = relation.NewDatabase(s, d)
		nConst := 2 + rng.Intn(3)
		consts := make([]relation.Const, nConst)
		for i := range consts {
			consts[i] = d.Intern(string(rune('a' + i)))
		}
		for i := 0; i < 2+rng.Intn(5); i++ {
			tk.Input.Insert(relation.NewTuple(p, consts[rng.Intn(nConst)], consts[rng.Intn(nConst)]))
		}
		// Random positive labelling of out over the constants.
		for _, c := range consts {
			if rng.Intn(3) == 0 {
				tk.Pos = append(tk.Pos, relation.NewTuple(out, c))
			}
		}
		if len(tk.Pos) == 0 {
			continue
		}
		if err := tk.Prepare(); err != nil {
			t.Fatal(err)
		}

		res, err := Synthesize(context.Background(), tk, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Oracle: realizable iff for every positive tuple, the
		// maximal context's rule avoids all negatives (Lemma 4.2).
		realizable := true
		for _, pos := range tk.Pos {
			rule, ok := maximalRule(tk, pos)
			if !ok {
				realizable = false
				break
			}
			if !tk.Example().RuleConsistentWithNegatives(rule) {
				realizable = false
				break
			}
		}
		if res.Unsat == realizable {
			t.Fatalf("trial %d: egs unsat=%v but oracle realizable=%v", trial, res.Unsat, realizable)
		}
		if !res.Unsat {
			if ok, why := tk.Example().Consistent(res.Query); !ok {
				t.Fatalf("trial %d: inconsistent: %s", trial, why)
			}
		}
	}
}

// maximalRule builds r_{I -> t}: the generalization of the full
// input as a context for t. ok is false when some constant of t does
// not occur in the input.
func maximalRule(tk *task.Task, target relation.Tuple) (query.Rule, bool) {
	return generalize(tk.Input, tk.Input.AllIDs(), target, len(target.Args))
}
