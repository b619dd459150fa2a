package eval

import (
	"math/rand"
	"testing"

	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/relation"
)

func TestWhyTwoHop(t *testing.T) {
	db, edge, _, path, cs := pathFixture(t)
	r := twoHopRule(edge, path)
	d, ok := Why(r, db, relation.NewTuple(path, cs["a"], cs["c"]))
	if !ok {
		t.Fatal("no derivation for path(a,c)")
	}
	if len(d.Witnesses) != 2 {
		t.Fatalf("witnesses = %d, want 2", len(d.Witnesses))
	}
	// The witnesses must be edge(a,b) and edge(b,c) in body order.
	if !d.Witnesses[0].Equal(relation.NewTuple(edge, cs["a"], cs["b"])) {
		t.Errorf("witness 0 = %v", d.Witnesses[0].String(db.Schema, db.Domain))
	}
	if !d.Witnesses[1].Equal(relation.NewTuple(edge, cs["b"], cs["c"])) {
		t.Errorf("witness 1 = %v", d.Witnesses[1].String(db.Schema, db.Domain))
	}
	// The valuation must bind head variables to the target.
	if d.Valuation[0] != cs["a"] || d.Valuation[1] != cs["c"] {
		t.Errorf("valuation = %v", d.Valuation)
	}
}

func TestWhyUnderivable(t *testing.T) {
	db, edge, _, path, cs := pathFixture(t)
	r := twoHopRule(edge, path)
	if _, ok := Why(r, db, relation.NewTuple(path, cs["a"], cs["b"])); ok {
		t.Error("derivation found for non-derivable tuple")
	}
	if _, ok := Why(r, db, relation.NewTuple(edge, cs["a"], cs["b"])); ok {
		t.Error("derivation found for wrong relation")
	}
}

func TestWhyUCQPicksDerivingRule(t *testing.T) {
	db, edge, color, path, cs := pathFixture(t)
	colored := query.Rule{
		Head: query.Literal{Rel: path, Args: []query.Term{query.V(0), query.V(0)}},
		Body: []query.Literal{{Rel: color, Args: []query.Term{query.V(0)}}},
	}
	q := query.UCQ{Rules: []query.Rule{twoHopRule(edge, path), colored}}
	d, ok := WhyUCQ(q, db, relation.NewTuple(path, cs["a"], cs["a"]))
	if !ok {
		t.Fatal("no derivation for path(a,a)")
	}
	if len(d.Witnesses) != 1 || d.Witnesses[0].Rel != color {
		t.Errorf("expected color witness, got %v", d.Witnesses)
	}
	if _, ok := WhyUCQ(q, db, relation.NewTuple(path, cs["d"], cs["a"])); ok {
		t.Error("derivation for underivable tuple")
	}
}

// TestWhyAgreesWithDerives cross-checks Why against Derives on
// random instances: Why succeeds exactly when Derives holds, and the
// returned witnesses actually satisfy the body under the valuation.
func TestWhyAgreesWithDerives(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		rule, db := randomInstance(rng)
		outs := outputTuples(rule, db)
		probe := make([]relation.Tuple, 0, len(outs)+3)
		for _, tu := range outs {
			probe = append(probe, tu)
		}
		for i := 0; i < 3; i++ {
			args := make([]relation.Const, len(rule.Head.Args))
			for j := range args {
				args[j] = relation.Const(rng.Intn(db.Domain.Size() + 1))
			}
			probe = append(probe, relation.Tuple{Rel: rule.Head.Rel, Args: args})
		}
		for _, tu := range probe {
			d, ok := Why(rule, db, tu)
			if ok != Derives(rule, db, tu) {
				t.Fatalf("trial %d: Why=%v Derives=%v", trial, ok, Derives(rule, db, tu))
			}
			if !ok {
				continue
			}
			// Verify the witness: each body literal instantiated by
			// the valuation must equal the recorded witness and be
			// present in the database.
			for bi, lit := range rule.Body {
				w := d.Witnesses[bi]
				if w.Rel != lit.Rel {
					t.Fatalf("trial %d: witness relation mismatch", trial)
				}
				if !db.Contains(w) {
					t.Fatalf("trial %d: witness not in database", trial)
				}
				for ai, term := range lit.Args {
					want := term.Const
					if !term.IsConst {
						want = d.Valuation[term.Var]
					}
					if w.Args[ai] != want {
						t.Fatalf("trial %d: witness arg %d = %v, want %v", trial, ai, w.Args[ai], want)
					}
				}
			}
		}
	}
}
