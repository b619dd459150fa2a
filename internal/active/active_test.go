package active

import (
	"context"
	"strings"
	"testing"

	"github.com/egs-synthesis/egs/internal/egs"
	"github.com/egs-synthesis/egs/internal/eval"
	"github.com/egs-synthesis/egs/internal/relation"
	"github.com/egs-synthesis/egs/internal/task"
)

// trafficPartial is the Figure 1 instance with only one positive and
// one negative label; the loop must recover the paper's concept by
// asking membership queries.
const trafficPartial = `
task traffic-interactive
closed-world false
input Intersects(2)
input GreenSignal(1)
input HasTraffic(1)
output Crashes(1)
Intersects(Broadway, LibertySt).
Intersects(Broadway, WallSt).
Intersects(Broadway, Whitehall).
Intersects(LibertySt, Broadway).
Intersects(LibertySt, WilliamSt).
Intersects(WallSt, Broadway).
Intersects(WallSt, WilliamSt).
Intersects(Whitehall, Broadway).
Intersects(WilliamSt, LibertySt).
Intersects(WilliamSt, WallSt).
GreenSignal(Broadway).
GreenSignal(LibertySt).
GreenSignal(WilliamSt).
GreenSignal(Whitehall).
HasTraffic(Broadway).
HasTraffic(WallSt).
HasTraffic(WilliamSt).
HasTraffic(Whitehall).
+Crashes(Whitehall).
-Crashes(WallSt).
`

// groundTruth answers membership queries according to the paper's
// concept: crashes happen exactly on Broadway and Whitehall.
func groundTruth(t *testing.T, tk *task.Task) Oracle {
	t.Helper()
	broadway, _ := tk.Domain.Lookup("Broadway")
	whitehall, _ := tk.Domain.Lookup("Whitehall")
	return func(tu relation.Tuple) bool {
		return len(tu.Args) == 1 && (tu.Args[0] == broadway || tu.Args[0] == whitehall)
	}
}

func TestLearnConvergesOnTraffic(t *testing.T) {
	tk, err := task.Parse(strings.NewReader(trafficPartial))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Learn(context.Background(), tk, groundTruth(t, tk), Config{MaxRounds: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unsat {
		t.Fatal("interactive loop reported unsat")
	}
	if !res.Converged {
		t.Fatalf("did not converge after %d rounds", res.Rounds)
	}
	// The final query must respect the ground truth on the training
	// input: it derives Broadway and Whitehall and no other street.
	outs := eval.UCQOutputIDs(res.Query, tk.Input)
	oracle := groundTruth(t, tk)
	outs.Iterate(func(id relation.TupleID) bool {
		if tu := tk.Input.TupleByID(id); !oracle(tu) {
			t.Errorf("final query derives %s, which the oracle rejects",
				tu.String(tk.Schema, tk.Domain))
		}
		return true
	})
	whitehall, _ := tk.Domain.Lookup("Whitehall")
	crashes, _ := tk.Schema.Lookup("Crashes")
	if !outs.Has(tk.Input.InternTuple(relation.NewTuple(crashes, whitehall))) {
		t.Error("final query misses Crashes(Whitehall)")
	}
	if res.Rounds == 0 {
		t.Error("converged without asking anything; the partial labels should be ambiguous")
	}
	if len(res.Labels) != res.Rounds {
		t.Errorf("labels=%d rounds=%d", len(res.Labels), res.Rounds)
	}
}

func TestLearnRespectsMaxRounds(t *testing.T) {
	tk, err := task.Parse(strings.NewReader(trafficPartial))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Learn(context.Background(), tk, groundTruth(t, tk), Config{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 1 {
		t.Errorf("rounds = %d, want <= 1", res.Rounds)
	}
	// Even without convergence a consistent query is returned.
	if len(res.Query.Rules) == 0 && !res.Unsat {
		t.Error("no query returned")
	}
}

func TestLearnRejectsClosedWorld(t *testing.T) {
	src := strings.Replace(trafficPartial, "closed-world false", "closed-world true", 1)
	src = strings.Replace(src, "-Crashes(WallSt).\n", "", 1)
	tk, err := task.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Learn(context.Background(), tk, func(relation.Tuple) bool { return false }, Config{}); err != ErrClosedWorld {
		t.Fatalf("err = %v, want ErrClosedWorld", err)
	}
}

func TestLearnAdversarialOracleMayGoUnsat(t *testing.T) {
	// An oracle that rejects everything eventually contradicts the
	// positive label... it cannot: rejecting tuples only adds
	// negatives, and the task stays realizable as long as Whitehall
	// is distinguishable. Instead check the loop terminates and the
	// result stays consistent with all acquired labels.
	tk, err := task.Parse(strings.NewReader(trafficPartial))
	if err != nil {
		t.Fatal(err)
	}
	// QuickUnsat keeps the possibly-unrealizable rounds cheap
	// (Lemma 4.2) — exactly the situation the fast path exists for.
	res, err := Learn(context.Background(), tk, func(relation.Tuple) bool { return false },
		Config{MaxRounds: 5, Options: egs.Options{QuickUnsat: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unsat {
		// Acceptable: rejecting every street can make the example
		// unrealizable if Whitehall becomes indistinguishable.
		return
	}
	outs := eval.UCQOutputIDs(res.Query, tk.Input)
	for _, l := range res.Labels {
		derived := outs.Has(tk.Input.InternTuple(l.Tuple))
		if l.Positive && !derived {
			t.Errorf("positive label %s not derived", l.Tuple.String(tk.Schema, tk.Domain))
		}
		if !l.Positive && derived {
			t.Errorf("negative label %s derived", l.Tuple.String(tk.Schema, tk.Domain))
		}
	}
}

func TestRelabelSharing(t *testing.T) {
	tk, err := task.Parse(strings.NewReader(trafficPartial))
	if err != nil {
		t.Fatal(err)
	}
	crashes, _ := tk.Schema.Lookup("Crashes")
	broadway, _ := tk.Domain.Lookup("Broadway")
	nt, err := tk.Relabel([]relation.Tuple{relation.NewTuple(crashes, broadway)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(nt.Pos) != len(tk.Pos)+1 {
		t.Errorf("Pos not extended: %d", len(nt.Pos))
	}
	if nt.Input != tk.Input {
		t.Error("database not shared")
	}
	if nt.RawInputCount != tk.RawInputCount {
		t.Error("RawInputCount changed")
	}
	// Original task unchanged.
	if len(tk.Pos) != 1 {
		t.Error("original task mutated")
	}
}
