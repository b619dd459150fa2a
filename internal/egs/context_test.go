package egs

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/egs-synthesis/egs/internal/eval"
	"github.com/egs-synthesis/egs/internal/relation"
)

func TestExtendKeepsSorted(t *testing.T) {
	var a idArena
	ids := []relation.TupleID{2, 5, 9}
	out := a.extend(ids, 7)
	want := []relation.TupleID{2, 5, 7, 9}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("extend = %v, want %v", out, want)
		}
	}
	// Callers filter duplicates with containsID before extending.
	if !containsID(ids, 5) {
		t.Error("duplicate not detected")
	}
	// The input must not be mutated.
	if len(ids) != 3 || ids[0] != 2 || ids[2] != 9 {
		t.Errorf("input mutated: %v", ids)
	}
	// Extend at the ends.
	if out := a.extend(ids, 1); out[0] != 1 {
		t.Errorf("prepend failed: %v", out)
	}
	if out := a.extend(ids, 12); out[3] != 12 {
		t.Errorf("append failed: %v", out)
	}
	// Extend the empty context.
	if out := a.extend(nil, 4); len(out) != 1 || out[0] != 4 {
		t.Errorf("extend(nil) = %v", out)
	}
}

func TestExtendQuick(t *testing.T) {
	var a idArena
	f := func(raw []uint16, x uint16) bool {
		ids := make([]relation.TupleID, 0, len(raw))
		seen := map[relation.TupleID]bool{}
		for _, r := range raw {
			id := relation.TupleID(r)
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		if containsID(ids, relation.TupleID(x)) != seen[relation.TupleID(x)] {
			return false
		}
		if seen[relation.TupleID(x)] {
			return true
		}
		out := a.extend(ids, relation.TupleID(x))
		if len(out) != len(ids)+1 || cap(out) != len(out) {
			return false
		}
		for i := 0; i+1 < len(out); i++ {
			if out[i] >= out[i+1] {
				return false
			}
		}
		return containsID(out, relation.TupleID(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArenaExtendIsolation(t *testing.T) {
	var a idArena
	base := a.copy([]relation.TupleID{2, 5, 9})
	out := a.extend(base, 7)
	want := []relation.TupleID{2, 5, 7, 9}
	if len(out) != len(want) {
		t.Fatalf("extend = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("extend = %v, want %v", out, want)
		}
	}
	// The source context must not be mutated by the sorted insert.
	if base[0] != 2 || base[1] != 5 || base[2] != 9 {
		t.Errorf("base mutated: %v", base)
	}
	// Arena slices are capacity-capped: appending to one context must
	// not overwrite its arena neighbour.
	prepend := a.extend(base, 1)
	_ = append(base, 999)
	if prepend[0] != 1 || prepend[1] != 2 || prepend[3] != 9 {
		t.Errorf("append to neighbour bled into arena slice: %v", prepend)
	}
	// Allocations larger than a chunk still work.
	big := make([]relation.TupleID, arenaChunkIDs+5)
	for i := range big {
		big[i] = relation.TupleID(i)
	}
	got := a.copy(big)
	if len(got) != len(big) || got[arenaChunkIDs+4] != relation.TupleID(arenaChunkIDs+4) {
		t.Error("oversized arena copy corrupt")
	}
}

func TestContainsID(t *testing.T) {
	ids := []relation.TupleID{3, 8, 15}
	for _, id := range ids {
		if !containsID(ids, id) {
			t.Errorf("containsID(%d) = false", id)
		}
	}
	for _, id := range []relation.TupleID{0, 4, 99} {
		if containsID(ids, id) {
			t.Errorf("containsID(%d) = true", id)
		}
	}
}

func TestGeneralizeSharedConstants(t *testing.T) {
	tk := mustTask(t, trafficSrc)
	db := tk.Input
	intersects, _ := tk.Schema.Lookup("Intersects")
	green, _ := tk.Schema.Lookup("GreenSignal")
	crashes, _ := tk.Schema.Lookup("Crashes")
	broadway, _ := tk.Domain.Lookup("Broadway")
	whitehall, _ := tk.Domain.Lookup("Whitehall")

	id1, ok1 := db.ID(relation.NewTuple(intersects, whitehall, broadway))
	id2, ok2 := db.ID(relation.NewTuple(green, whitehall))
	if !ok1 || !ok2 {
		t.Fatal("fixture tuples missing")
	}
	target := relation.NewTuple(crashes, whitehall)
	rule, ok := generalize(db, []relation.TupleID{id1, id2}, target, 1)
	if !ok {
		t.Fatal("generalize failed")
	}
	// Whitehall maps to one variable shared between head, the
	// Intersects literal, and the GreenSignal literal.
	headVar := rule.Head.Args[0].Var
	if rule.Body[0].Args[0].Var != headVar {
		t.Error("head constant not shared with first body literal")
	}
	if rule.Body[1].Args[0].Var != headVar {
		t.Error("head constant not shared with second body literal")
	}
	// Broadway gets a distinct variable.
	if rule.Body[0].Args[1].Var == headVar {
		t.Error("distinct constants merged")
	}
	if err := rule.Safe(); err != nil {
		t.Errorf("generalized rule unsafe: %v", err)
	}
}

func TestGeneralizeInadmissible(t *testing.T) {
	tk := mustTask(t, trafficSrc)
	db := tk.Input
	green, _ := tk.Schema.Lookup("GreenSignal")
	crashes, _ := tk.Schema.Lookup("Crashes")
	broadway, _ := tk.Domain.Lookup("Broadway")
	whitehall, _ := tk.Domain.Lookup("Whitehall")
	id, _ := db.ID(relation.NewTuple(green, broadway))
	// Context {GreenSignal(Broadway)} cannot explain Crashes(Whitehall).
	if _, ok := generalize(db, []relation.TupleID{id}, relation.NewTuple(crashes, whitehall), 1); ok {
		t.Error("inadmissible context generalized")
	}
}

// TestGeneralizeIdentityDerivation: the rule r_{C -> t} always
// derives t via the identity valuation (the observation behind
// Theorem 4.1).
func TestGeneralizeIdentityDerivation(t *testing.T) {
	tk := mustTask(t, trafficSrc)
	db := tk.Input
	crashes, _ := tk.Schema.Lookup("Crashes")
	whitehall, _ := tk.Domain.Lookup("Whitehall")
	target := relation.NewTuple(crashes, whitehall)
	// Any context containing the anchor works; use all tuples
	// mentioning Whitehall.
	ids := append([]relation.TupleID(nil), db.Mentioning(whitehall)...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rule, ok := generalize(db, ids, target, 1)
	if !ok {
		t.Fatal("generalize failed")
	}
	if !eval.Derives(rule, db, target) {
		t.Error("r_{C->t} does not derive t")
	}
}

func TestQueueP2Ordering(t *testing.T) {
	q := newCtxQueue(P2)
	q.push(&ectx{ids: []relation.TupleID{1}, score: 1.0, seq: 1})
	q.push(&ectx{ids: []relation.TupleID{1, 2}, score: 2.0, seq: 2})
	q.push(&ectx{ids: []relation.TupleID{3}, score: 2.0, seq: 3})
	q.push(&ectx{ids: []relation.TupleID{4}, score: 1.0, seq: 4})
	// Highest score first; ties by smaller size; ties by FIFO.
	order := []struct {
		score float64
		size  int
		seq   int
	}{
		{2.0, 1, 3}, {2.0, 2, 2}, {1.0, 1, 1}, {1.0, 1, 4},
	}
	for i, want := range order {
		got := q.pop()
		if got.score != want.score || got.size() != want.size || got.seq != want.seq {
			t.Fatalf("pop %d = {score %v size %d seq %d}, want %+v",
				i, got.score, got.size(), got.seq, want)
		}
	}
}

func TestQueueP1Ordering(t *testing.T) {
	q := newCtxQueue(P1)
	q.push(&ectx{ids: []relation.TupleID{1, 2, 3}, score: 9.0, seq: 1})
	q.push(&ectx{ids: []relation.TupleID{1}, score: 0.0, seq: 2})
	q.push(&ectx{ids: []relation.TupleID{2}, score: 5.0, seq: 3})
	// Smallest first regardless of score; ties FIFO.
	if got := q.pop(); got.seq != 2 {
		t.Fatalf("first pop seq = %d, want 2", got.seq)
	}
	if got := q.pop(); got.seq != 3 {
		t.Fatalf("second pop seq = %d, want 3", got.seq)
	}
	if got := q.pop(); got.seq != 1 {
		t.Fatalf("third pop seq = %d, want 1", got.seq)
	}
}

func TestPriorityString(t *testing.T) {
	if P1.String() != "p1" || P2.String() != "p2" {
		t.Error("Priority strings wrong")
	}
}

// TestAssessScoreMatchesDefinition recomputes the paper's score
// formula directly for a known context.
func TestAssessScoreMatchesDefinition(t *testing.T) {
	tk := mustTask(t, trafficSrc)
	ex := tk.Example()
	db := tk.Input
	green, _ := tk.Schema.Lookup("GreenSignal")
	crashes, _ := tk.Schema.Lookup("Crashes")
	whitehall, _ := tk.Domain.Lookup("Whitehall")
	id, _ := db.ID(relation.NewTuple(green, whitehall))
	target := relation.NewTuple(crashes, whitehall)

	a := assessor{ex: ex, memo: NewMemo()}
	p := cellParams{target: target, i: 1}
	p.totalForbidden, p.countKnown = ex.CountForbidden(crashes, 1, 1)
	if !p.countKnown {
		t.Fatal("CountForbidden overflow")
	}
	var sl assessSlot
	c := &ectx{ids: []relation.TupleID{id}}
	a.assess(&sl, c, &p)
	if c.evals != 1 || c.memoHit {
		t.Errorf("first assessment: evals = %d, memoHit = %v", c.evals, c.memoHit)
	}
	// q1: Crashes(x) :- GreenSignal(x) derives 4 streets; Broadway
	// and Whitehall are positive, LibertySt and WilliamSt forbidden.
	// |F_1| = 3 (Liberty, Wall, William); eliminated = 3 - 2 = 1;
	// score = 1 / 1 literal = 1.0. And the context is inconsistent.
	if c.consistent {
		t.Error("over-general context reported consistent")
	}
	if c.score != 1.0 {
		t.Errorf("score = %v, want 1.0 (Section 4.3's worked example)", c.score)
	}

	// The alpha-equivalent context {GreenSignal(Broadway)} for target
	// Crashes(Broadway) generalizes to the same canonical rule, so it
	// must hit the memo and land on identical verdicts.
	broadway, _ := tk.Domain.Lookup("Broadway")
	id2, _ := db.ID(relation.NewTuple(green, broadway))
	p2 := cellParams{target: relation.NewTuple(crashes, broadway), i: 1}
	p2.totalForbidden, p2.countKnown = p.totalForbidden, p.countKnown
	c2 := &ectx{ids: []relation.TupleID{id2}}
	a.assess(&sl, c2, &p2)
	if !c2.memoHit || c2.evals != 0 {
		t.Errorf("alpha-equivalent context missed memo: evals = %d, memoHit = %v", c2.evals, c2.memoHit)
	}
	if c2.consistent != c.consistent || c2.score != c.score {
		t.Errorf("memoized verdict diverged: consistent %v/%v, score %v/%v",
			c2.consistent, c.consistent, c2.score, c.score)
	}

	// An inadmissible context (head constant absent from the body) is
	// never consistent and sorts below every admissible context.
	libertySt, _ := tk.Domain.Lookup("LibertySt")
	c3 := &ectx{ids: []relation.TupleID{id}}
	a.assess(&sl, c3, &cellParams{target: relation.NewTuple(crashes, libertySt), i: 1})
	if c3.consistent || !math.IsInf(c3.score, -1) {
		t.Errorf("inadmissible context: consistent = %v, score = %v", c3.consistent, c3.score)
	}
}
