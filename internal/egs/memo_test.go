package egs

import (
	"testing"

	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/relation"
	"github.com/egs-synthesis/egs/internal/task"
)

// memoFixture prepares the traffic task and a full-arity candidate
// rule Crashes(x) :- HasTraffic(x), GreenSignal(x) whose assessment
// the tests memoize by hand.
func memoFixture(t *testing.T) (*task.Task, *task.Example, query.Rule) {
	t.Helper()
	tk := mustTask(t, trafficSrc)
	if err := tk.Prepare(); err != nil {
		t.Fatal(err)
	}
	ex := tk.Example()
	rel := func(name string) relation.RelID {
		id, ok := tk.Schema.Lookup(name)
		if !ok {
			t.Fatalf("no relation %s", name)
		}
		return id
	}
	x := query.V(0)
	rule := query.Rule{
		Head: query.Literal{Rel: rel("Crashes"), Args: []query.Term{x}},
		Body: []query.Literal{
			{Rel: rel("HasTraffic"), Args: []query.Term{x}},
			{Rel: rel("GreenSignal"), Args: []query.Term{x}},
		},
	}
	return tk, ex, rule
}

// memoKey is what prepare hands the memo for a rule: its canonical
// image and the relations the validity stamps read.
type memoKey struct {
	img  []byte
	body []relation.RelID
	head relation.RelID
}

func memoKeyOf(rule query.Rule) memoKey {
	k := memoKey{img: canonImage(rule), head: rule.Head.Rel}
	for _, l := range rule.Body {
		k.body = append(k.body, l.Rel)
	}
	return k
}

func TestMemoStampsSurviveUnrelatedDeltas(t *testing.T) {
	tk, ex, rule := memoFixture(t)
	m := NewMemo()
	k := memoKeyOf(rule)
	derived, outs := forbiddenDerived(ex, rule, 1, 1)
	m.store(string(k.img), k.body, k.head, derived, outs)

	if got, hit := m.lookup(k.img, k.body, k.head, ex); !hit || got != derived {
		t.Fatalf("fresh lookup = %d,%v want %d,true", got, hit, derived)
	}

	// A fact delta on a relation the rule does not read cannot affect
	// the entry.
	intersects, _ := tk.Schema.Lookup("Intersects")
	m.BumpFact(intersects)
	if got, hit := m.lookup(k.img, k.body, k.head, ex); !hit || got != derived {
		t.Errorf("lookup after unrelated BumpFact = %d,%v want %d,true", got, hit, derived)
	}

	// An example delta on a different output relation cannot either.
	m.BumpExample(intersects) // any other rel id works as "other output"
	if got, hit := m.lookup(k.img, k.body, k.head, ex); !hit || got != derived {
		t.Errorf("lookup after unrelated BumpExample = %d,%v want %d,true", got, hit, derived)
	}
}

func TestMemoFactDeltaInvalidates(t *testing.T) {
	tk, ex, rule := memoFixture(t)
	m := NewMemo()
	k := memoKeyOf(rule)
	derived, outs := forbiddenDerived(ex, rule, 1, 1)
	m.store(string(k.img), k.body, k.head, derived, outs)

	hasTraffic, _ := tk.Schema.Lookup("HasTraffic")
	m.BumpFact(hasTraffic)
	if _, hit := m.lookup(k.img, k.body, k.head, ex); hit {
		t.Error("entry survived a fact delta on a body relation")
	}

	// Re-storing under the new epoch makes it valid again.
	m.store(string(k.img), k.body, k.head, derived, outs)
	if got, hit := m.lookup(k.img, k.body, k.head, ex); !hit || got != derived {
		t.Errorf("re-stored lookup = %d,%v want %d,true", got, hit, derived)
	}
}

// TestMemoExampleDeltaRevalidates: a pure example delta on the head
// relation must not cost a re-evaluation when the entry holds the
// rule's output ids — the memo re-probes the new labelling and
// returns a hit with the *updated* count.
func TestMemoExampleDeltaRevalidates(t *testing.T) {
	tk, ex, rule := memoFixture(t)
	m := NewMemo()
	k := memoKeyOf(rule)
	derived, outs := forbiddenDerived(ex, rule, 1, 1)
	if outs == nil {
		t.Fatal("full-arity assessment did not capture output ids")
	}
	m.store(string(k.img), k.body, k.head, derived, outs)

	crashes, _ := tk.Schema.Lookup("Crashes")
	m.BumpExample(crashes)

	// Revise: drop Crashes(Whitehall) from O+. Closed world makes it
	// forbidden, so the revalidated count must become 1 — computed
	// from the stored ids, not from a join.
	var pos []relation.Tuple
	for _, p := range tk.Pos {
		if tk.Domain.Name(p.Args[0]) != "Whitehall" {
			pos = append(pos, p)
		}
	}
	revised, err := tk.Revise(pos, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, hit := m.lookup(k.img, k.body, k.head, revised.Example())
	if !hit {
		t.Fatal("example-only delta missed despite stored output ids")
	}
	// Whitehall is among the rule's outputs and is now forbidden, so
	// the revalidated count grows by exactly one.
	if got != derived+1 {
		t.Errorf("revalidated derived = %d, want %d", got, derived+1)
	}
	_ = ex
}

func TestMemoExampleDeltaWithoutOutsMisses(t *testing.T) {
	tk, ex, rule := memoFixture(t)
	m := NewMemo()
	k := memoKeyOf(rule)
	derived, _ := forbiddenDerived(ex, rule, 1, 1)
	m.store(string(k.img), k.body, k.head, derived, nil) // proper-slice-style entry

	crashes, _ := tk.Schema.Lookup("Crashes")
	m.BumpExample(crashes)
	if _, hit := m.lookup(k.img, k.body, k.head, ex); hit {
		t.Error("entry without output ids survived an example delta on its head")
	}
}

func TestMemoDomainDeltaInvalidatesViaExampleStamp(t *testing.T) {
	_, ex, rule := memoFixture(t)
	m := NewMemo()
	k := memoKeyOf(rule)
	m.store(string(k.img), k.body, k.head, 3, nil)
	m.BumpDomain()
	if _, hit := m.lookup(k.img, k.body, k.head, ex); hit {
		t.Error("entry without output ids survived a domain delta")
	}
}

// TestSharedMemoAcrossRunsIsSound: two cold Synthesize runs of the
// same task sharing one Memo must agree byte-for-byte with an
// unshared run, and the second run must do strictly fewer rule
// evaluations.
func TestSharedMemoAcrossRunsIsSound(t *testing.T) {
	ref := synth(t, mustTask(t, trafficSrc), Options{})

	m := NewMemo()
	first := synth(t, mustTask(t, trafficSrc), Options{Memo: m})
	second := synth(t, mustTask(t, trafficSrc), Options{Memo: m})

	for _, res := range []Result{first, second} {
		if len(res.Query.Rules) != len(ref.Query.Rules) {
			t.Fatalf("shared-memo run learned %d rules, want %d", len(res.Query.Rules), len(ref.Query.Rules))
		}
		for i := range res.Query.Rules {
			if res.Query.Rules[i].CanonicalKey() != ref.Query.Rules[i].CanonicalKey() {
				t.Errorf("rule %d differs under shared memo", i)
			}
		}
	}
	if second.Stats.RuleEvals >= first.Stats.RuleEvals {
		t.Errorf("warm run evals = %d, want < %d", second.Stats.RuleEvals, first.Stats.RuleEvals)
	}
	if second.Stats.MemoHits <= first.Stats.MemoHits {
		t.Errorf("warm run memo hits = %d, want > %d", second.Stats.MemoHits, first.Stats.MemoHits)
	}
}
