package main

import (
	"fmt"
	"sort"
	"strings"

	"github.com/egs-synthesis/egs/internal/eval"
	"github.com/egs-synthesis/egs/internal/parser"
	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/relation"
	"github.com/egs-synthesis/egs/internal/session"
	"github.com/egs-synthesis/egs/internal/task"
)

// The correctness gate. Every answer is checked with
// eval.EvalRuleNaive, an unindexed nested-loop join that shares no code
// with the backtracking and batch kernels the synthesizer runs.

// derivedAtoms evaluates q with the reference evaluator, keyed by the
// rendering relation.Tuple.String gives.
func derivedAtoms(q query.UCQ, db *relation.Database, s *relation.Schema, d *relation.Domain) map[string]atom {
	out := map[string]atom{}
	for _, r := range q.Rules {
		for _, t := range eval.EvalRuleNaive(r, db) {
			a := tupleAtom(t, s, d)
			out[a.String()] = a
		}
	}
	return out
}

// checkLabels checks that q derives every positive and no negative;
// under closed world every tuple outside the positives is negative.
func checkLabels(q query.UCQ, db *relation.Database, s *relation.Schema, d *relation.Domain, pos, neg []string, closed bool) error {
	got := derivedAtoms(q, db, s, d)
	isPos := make(map[string]bool, len(pos))
	for _, p := range pos {
		isPos[p] = true
		if _, ok := got[p]; !ok {
			return fmt.Errorf("program does not derive positive %s", p)
		}
	}
	if closed {
		for a := range got {
			if !isPos[a] {
				return fmt.Errorf("program derives %s, negative under closed world", a)
			}
		}
		return nil
	}
	for _, n := range neg {
		if _, ok := got[n]; ok {
			return fmt.Errorf("program derives negative %s", n)
		}
	}
	return nil
}

func renderAtoms(ts []relation.Tuple, s *relation.Schema, d *relation.Domain) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String(s, d)
	}
	return out
}

// checkVerdict checks a synthesis outcome against the task's expect
// line and, for a program, against its labels.
func checkVerdict(tk *task.Task, unsat bool, q query.UCQ) error {
	switch {
	case unsat && tk.Expect == task.ExpectUnsat:
		return nil
	case unsat:
		return fmt.Errorf("unsat, expected %s", tk.Expect)
	case tk.Expect == task.ExpectUnsat:
		return fmt.Errorf("program returned for an unrealizable task")
	}
	return checkLabels(q, tk.Input, tk.Schema, tk.Domain,
		renderAtoms(tk.Pos, tk.Schema, tk.Domain), renderAtoms(tk.Neg, tk.Schema, tk.Domain), tk.ClosedWorld)
}

// parseProgram re-parses rendered Datalog, one rule per line, against
// a task's schema and domain.
func parseProgram(src string, tk *task.Task) (query.UCQ, error) {
	var q query.UCQ
	for _, line := range strings.Split(src, "\n") {
		if line = strings.TrimSpace(line); line == "" {
			continue
		}
		r, err := parser.ParseRule(line, tk.Schema, tk.Domain)
		if err != nil {
			return q, fmt.Errorf("answer does not parse: %w", err)
		}
		q.Rules = append(q.Rules, r)
	}
	return q, nil
}

// replayStats accumulates the forced-strategy replays of a traced run.
type replayStats struct {
	rules, autoBatch int
}

// replay times eval.RuleOutputIDs on each final rule under the auto
// heuristic and under each forced strategy, and checks that all three
// derive the same tuples. The strategy override is restored before
// returning; untraced runs never call this.
func replay(tr *tracer, parent, id int, q query.UCQ, db *relation.Database, st *replayStats) error {
	for _, r := range q.Rules {
		// An untimed auto run with the dispatch counters on learns which
		// strategy the heuristic picks.
		eval.EnablePoolTracing()
		b0, _, _ := eval.StrategyCounters()
		eval.RuleOutputIDs(r, db)
		b1, _, _ := eval.StrategyCounters()
		eval.DisablePoolTracing()
		st.rules++
		if b1 > b0 {
			st.autoBatch++
		}

		sp := tr.begin("eval.replay_auto", parent, id)
		auto := eval.RuleOutputIDs(r, db)
		tr.end(sp)
		for _, f := range []struct {
			s    eval.Strategy
			span string
		}{{eval.StrategyBacktrack, "eval.replay_backtrack"}, {eval.StrategyBatch, "eval.replay_batch"}} {
			restore := eval.ForceStrategy(f.s)
			sp := tr.begin(f.span, parent, id)
			out := eval.RuleOutputIDs(r, db)
			tr.end(sp)
			restore()
			if !out.Equal(auto) {
				return fmt.Errorf("%s derives %d tuples, auto derives %d", f.s, out.Len(), auto.Len())
			}
		}
	}
	return nil
}

// atom is a ground atom by name. String renders it as
// relation.Tuple.String does (the key the checks compare).
type atom struct {
	rel  string
	args []string
}

func (a atom) String() string { return a.rel + "(" + strings.Join(a.args, ", ") + ")" }

func tupleAtom(t relation.Tuple, s *relation.Schema, d *relation.Domain) atom {
	a := atom{rel: s.Name(t.Rel), args: make([]string, len(t.Args))}
	for i, c := range t.Args {
		a.args[i] = d.Name(c)
	}
	return a
}

func keys(as []atom) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.String()
	}
	return out
}

// relabel describes a task re-labelled under open world: any sample of
// the tuples its intended program derives as positives, and of the
// tuples it does not derive as negatives, keeps the intended program
// consistent, so the expected verdict of every such labelling is sat.
type relabel struct {
	tk      *task.Task      // the base, open world, expect sat; text sets its labels
	present map[string]bool // facts, by atom key
	derived map[string]atom // atoms the intended program derives
	outputs []relation.RelInfo
	// inputs are the input relations, for fact deltas; sessions reject
	// those on a base with materialized negation, so such a base has
	// none.
	inputs []relation.RelInfo
	consts []string
}

// openWorld parses a task with an intended program and prepares it for
// re-labelling.
func openWorld(text string) (*relabel, error) {
	tk, err := task.Parse(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	if !tk.HasIntended() {
		return nil, fmt.Errorf("%s: no intended program", tk.Name)
	}
	tk.ClosedWorld, tk.Expect = false, task.ExpectSat
	rl := &relabel{tk: tk, present: map[string]bool{}}
	rl.derived = derivedAtoms(tk.Intended(), tk.Input, tk.Schema, tk.Domain)
	for _, c := range tk.Input.ConstantsOf(tk.Input.AllIDs()) {
		rl.consts = append(rl.consts, tk.Domain.Name(c))
	}
	sort.Strings(rl.consts)
	for _, r := range tk.Schema.Relations(relation.Output) {
		rl.outputs = append(rl.outputs, tk.Schema.Info(r))
	}
	if len(tk.NegateRels) == 0 && !tk.AddNeq {
		for _, r := range tk.Schema.Relations(relation.Input) {
			rl.inputs = append(rl.inputs, tk.Schema.Info(r))
		}
	}
	for _, t := range tk.Input.All()[:tk.RawInputCount] {
		rl.present[tupleAtom(t, tk.Schema, tk.Domain).String()] = true
	}
	return rl, nil
}

// positives returns the intended program's atoms in key order.
func (rl *relabel) positives() []atom {
	ks := make([]string, 0, len(rl.derived))
	for k := range rl.derived {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	out := make([]atom, len(ks))
	for i, k := range ks {
		out[i] = rl.derived[k]
	}
	return out
}

// randomAtom draws a tuple of rel over the task's constants.
func (rl *relabel) randomAtom(r *rng, rel relation.RelInfo) atom {
	a := atom{rel: rel.Name, args: make([]string, rel.Arity)}
	for i := range a.args {
		a.args[i] = rl.consts[r.intn(len(rl.consts))]
	}
	return a
}

// negatives draws up to n distinct atoms of the output relations that
// the intended program does not derive.
func (rl *relabel) negatives(r *rng, n int) []atom {
	var out []atom
	seen := map[string]bool{}
	for tries := 0; len(out) < n && tries < 50*n; tries++ {
		a := rl.randomAtom(r, rl.outputs[r.intn(len(rl.outputs))])
		k := a.String()
		if _, derived := rl.derived[k]; derived || seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, a)
	}
	return out
}

// text renders the task with the given labels (task.Write).
func (rl *relabel) text(pos, neg []atom) (string, error) {
	var err error
	if rl.tk.Pos, err = rl.tuples(pos); err != nil {
		return "", err
	}
	if rl.tk.Neg, err = rl.tuples(neg); err != nil {
		return "", err
	}
	var b strings.Builder
	err = task.Write(&b, rl.tk)
	return b.String(), err
}

// tuples resolves atoms over the base's schema and domain; every atom
// the relabel draws uses the base's relations and constants.
func (rl *relabel) tuples(as []atom) ([]relation.Tuple, error) {
	out := make([]relation.Tuple, len(as))
	for i, a := range as {
		rel, ok := rl.tk.Schema.Lookup(a.rel)
		if !ok {
			return nil, fmt.Errorf("unknown relation %s", a.rel)
		}
		out[i] = relation.Tuple{Rel: rel, Args: make([]relation.Const, len(a.args))}
		for j, name := range a.args {
			if out[i].Args[j], ok = rl.tk.Domain.Lookup(name); !ok {
				return nil, fmt.Errorf("unknown constant %q", name)
			}
		}
	}
	return out, nil
}

// derivedWith evaluates the intended program over the facts plus
// extraFacts, added through a session as fact deltas.
func (rl *relabel) derivedWith(extraFacts []atom) (map[string]atom, error) {
	src, err := rl.text(nil, nil)
	if err != nil {
		return nil, err
	}
	tk, err := task.Parse(strings.NewReader(src))
	if err != nil {
		return nil, err
	}
	s, err := session.New(tk)
	if err != nil {
		return nil, err
	}
	for _, a := range extraFacts {
		if err := s.AddFact(a.rel, a.args...); err != nil {
			return nil, err
		}
	}
	tk = s.Task()
	return derivedAtoms(tk.Intended(), tk.Input, tk.Schema, tk.Domain), nil
}
