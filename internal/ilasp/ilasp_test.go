package ilasp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/egs-synthesis/egs/internal/modes"
	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/relation"
	"github.com/egs-synthesis/egs/internal/synth"
	"github.com/egs-synthesis/egs/internal/task"
)

const twoHopSrc = `
task twohop
closed-world true
modes maxv=3 edge=2
input edge(2)
output out(2)
edge(a, b).
edge(b, c).
edge(c, d).
+out(a, c).
+out(b, d).
`

func load(t *testing.T, src string) *task.Task {
	t.Helper()
	tk, err := task.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

func TestSynthesizeTwoHop(t *testing.T) {
	tk := load(t, twoHopSrc)
	s := &Synthesizer{Source: TaskSpecific}
	res, err := s.Synthesize(context.Background(), tk)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != synth.Sat {
		t.Fatalf("status = %v (%s)", res.Status, res.Detail)
	}
	if ok, why := tk.Example().Consistent(res.Query); !ok {
		t.Fatalf("inconsistent: %s", why)
	}
	// Minimality: one rule suffices.
	if len(res.Query.Rules) != 1 {
		t.Errorf("hypothesis has %d rules, want 1:\n%s",
			len(res.Query.Rules), res.Query.String(tk.Schema, tk.Domain))
	}
}

func TestExhaustedOutsideModes(t *testing.T) {
	// maxv=2 cannot express the two-hop join, so the space holds no
	// consistent hypothesis.
	src := strings.Replace(twoHopSrc, "modes maxv=3 edge=2", "modes maxv=2 edge=1", 1)
	tk := load(t, src)
	s := &Synthesizer{Source: TaskSpecific}
	res, err := s.Synthesize(context.Background(), tk)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != synth.Exhausted {
		t.Fatalf("status = %v, want exhausted", res.Status)
	}
}

func TestMinimalityPrefersFewerRules(t *testing.T) {
	// Both out(x) :- p(x) and the union {q-rule, r-rule} are
	// consistent; the minimal hypothesis is the single p rule.
	src := `
task min
closed-world true
modes maxv=1 p=1 q=1 r=1
input p(1)
input q(1)
input r(1)
output out(1)
p(a).
p(b).
q(a).
r(b).
+out(a).
+out(b).
`
	tk := load(t, src)
	s := &Synthesizer{Source: TaskSpecific}
	res, err := s.Synthesize(context.Background(), tk)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != synth.Sat || len(res.Query.Rules) != 1 {
		t.Fatalf("got %d rules (%v), want minimal 1:\n%s",
			len(res.Query.Rules), res.Status, res.Query.String(tk.Schema, tk.Domain))
	}
}

func TestSATDescentBeatsGreedy(t *testing.T) {
	// Classic set-cover trap: the greedy cover picks the big middle
	// set (inC covers 4 of 6 positives) and then needs two more
	// rules; the optimal hypothesis is the two disjoint halves. The
	// cardinality descent must find the 2-rule optimum.
	src := `
task cover
closed-world true
modes maxv=1 inA=1 inB=1 inC=1
input inA(1)
input inB(1)
input inC(1)
output out(1)
inA(p1).
inA(p2).
inA(p3).
inB(p4).
inB(p5).
inB(p6).
inC(p2).
inC(p3).
inC(p4).
inC(p5).
+out(p1).
+out(p2).
+out(p3).
+out(p4).
+out(p5).
+out(p6).
`
	tk := load(t, src)
	s := &Synthesizer{Source: TaskSpecific}
	res, err := s.Synthesize(context.Background(), tk)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != synth.Sat {
		t.Fatalf("status = %v", res.Status)
	}
	if len(res.Query.Rules) != 2 {
		t.Fatalf("hypothesis has %d rules, want the SAT-minimal 2:\n%s",
			len(res.Query.Rules), res.Query.String(tk.Schema, tk.Domain))
	}
	if ok, why := tk.Example().Consistent(res.Query); !ok {
		t.Fatalf("inconsistent: %s", why)
	}
}

func TestModesForFallback(t *testing.T) {
	tk := load(t, strings.Replace(twoHopSrc, "modes maxv=3 edge=2\n", "", 1))
	if tk.Modes != nil {
		t.Fatal("modes unexpectedly parsed")
	}
	m := ModesFor(tk, TaskSpecific)
	if m.MaxVars != 10 {
		t.Errorf("fallback modes = %+v, want agnostic", m)
	}
	tk2 := load(t, twoHopSrc)
	if got := ModesFor(tk2, TaskSpecific); got.MaxVars != 3 {
		t.Errorf("task-specific modes = %+v", got)
	}
	if got := ModesFor(tk2, TaskAgnostic); got.MaxVars != 10 {
		t.Errorf("task-agnostic modes = %+v", got)
	}
}

func TestEvaluateCandidates(t *testing.T) {
	tk := load(t, twoHopSrc)
	gen := modes.Generate(context.Background(), tk, tk.Modes, 0)
	modes.SortRules(gen.Rules)
	allowed, derivers, err := EvaluateCandidates(context.Background(), tk.Example(), tk.Pos, gen.Rules)
	if err != nil {
		t.Fatal(err)
	}
	if len(allowed) == 0 {
		t.Fatal("no allowed rules")
	}
	// Under closed-world labelling, out(x, y) :- edge(x, y) derives
	// negative tuples and must be excluded.
	for _, ri := range allowed {
		r := gen.Rules[ri]
		if r.Size() == 1 && len(r.Head.Args) == 2 &&
			r.Head.Args[0].Var == r.Body[0].Args[0].Var &&
			r.Head.Args[1].Var == r.Body[0].Args[1].Var {
			t.Errorf("copy rule wrongly allowed: %s", r.String(tk.Schema, tk.Domain))
		}
	}
	for pi := range tk.Pos {
		if len(derivers[pi]) == 0 {
			t.Errorf("positive %d has no derivers", pi)
		}
	}
}

func TestRuleCapError(t *testing.T) {
	tk := load(t, twoHopSrc)
	s := &Synthesizer{Source: TaskAgnostic, RuleCap: 5}
	_, err := s.Synthesize(context.Background(), tk)
	if err == nil {
		t.Fatal("rule cap exceeded but no error")
	}
}

func TestDeadlinePropagates(t *testing.T) {
	tk := load(t, twoHopSrc)
	s := &Synthesizer{Source: TaskAgnostic}
	// An already-expired deadline: the outcome cannot depend on how
	// fast the host enumerates the agnostic space.
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	if _, err := s.Synthesize(ctx, tk); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Synthesize under an expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

func TestNames(t *testing.T) {
	if (&Synthesizer{Source: TaskSpecific}).Name() != "ilasp-L" {
		t.Error("ilasp-L name wrong")
	}
	if (&Synthesizer{Source: TaskAgnostic}).Name() != "ilasp-F" {
		t.Error("ilasp-F name wrong")
	}
}

func TestSelectMinimalInfeasible(t *testing.T) {
	tk := load(t, twoHopSrc)
	_, status, err := SelectMinimal(context.Background(), tk, nil)
	if err != nil || status != synth.Exhausted {
		t.Errorf("empty candidate set: status=%v err=%v", status, err)
	}
	// A single rule that derives negatives leaves positives uncovered.
	copyRule := query.Rule{
		Head: query.Literal{Rel: tk.Pos[0].Rel, Args: []query.Term{query.V(0), query.V(1)}},
		Body: []query.Literal{{Rel: mustRel(t, tk, "edge"), Args: []query.Term{query.V(0), query.V(1)}}},
	}
	_, status, err = SelectMinimal(context.Background(), tk, []query.Rule{copyRule})
	if err != nil || status != synth.Exhausted {
		t.Errorf("violating-only candidates: status=%v err=%v", status, err)
	}
}

func mustRel(t *testing.T, tk *task.Task, name string) relation.RelID {
	t.Helper()
	id, ok := tk.Schema.Lookup(name)
	if !ok {
		t.Fatalf("relation %s missing", name)
	}
	return id
}
