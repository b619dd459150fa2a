package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/egs-synthesis/egs/internal/datagen/family"
	coreegs "github.com/egs-synthesis/egs/internal/egs"
	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/session"
	"github.com/egs-synthesis/egs/internal/sqlgen"
	"github.com/egs-synthesis/egs/internal/task"
)

// session-revise: warm egs sessions driven by a scripted delta stream,
// one solve after each delta. Each base is a paper-suite task or a
// family instance re-labelled under open world (see relabel), so every
// delta below keeps the base's intended program consistent and every
// revision's expected verdict is sat:
//   - fact deltas add a fact that makes the intended program derive no
//     negative example; they invalidate memo entries (writes);
//   - example deltas add a withheld positive, add a negative the
//     intended program does not derive, or remove a negative; they
//     only revalidate memo entries (reads).
// A pass creates every session (parse, prepare, cold first solve: one
// set-up sample) and then runs the revisions in rounds, one revision of
// every session per round (one latency sample per revision).
//
// The bases and scripts are generated from the fixed sessionScriptSeed,
// not from the workload seed: on the small paper bases one random fact
// can change a revision's cost tenfold, so seeded scripts made runs with
// different seeds incomparable. The workload seed orders the sessions
// within every round.

// sessionPaperBases are paper-suite tasks with an intended program and
// no materialized negation (sessions reject fact deltas on those).
var sessionPaperBases = []string{
	"traffic", "trains", "sequential", "polysite", "animals", "sql25",
	"graph-coloring", "adjacent-to-red", "nested-loops", "rvcheck", "callsize", "reach",
}

// sessionFamilyBases are the family classes without negation, at d64.
var sessionFamilyBases = []string{"star", "union"}

const (
	sessionRevisions  = 12 // per session and pass; half fact, half example deltas
	sessionScriptSeed = 1
)

// revision is one scripted delta and the labels after it.
type revision struct {
	kind     string // "fact" or "example"
	op       string // add_fact, add_pos, add_neg, remove_neg
	atom     atom
	pos, neg []string
}

type sessionScript struct {
	name string
	text string // the open-world base task
	revs []revision
}

type sessionBench struct {
	seed    uint64
	scripts []sessionScript
	shares  map[string]int
}

func genSessionRevise(o options) (bench, error) {
	paper, fams, revs := sessionPaperBases, sessionFamilyBases, sessionRevisions
	if o.quick {
		paper, fams, revs = paper[:2], fams[:1], 4
	}
	var texts []taskInput
	for _, name := range paper {
		path, err := findTask(o.root, name)
		if err != nil {
			return nil, err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		texts = append(texts, taskInput{name: name, text: string(data)})
	}
	fr := newRNG(sessionScriptSeed, "session-family")
	for _, class := range fams {
		inst, err := family.Generate(family.Spec{Class: class, Domain: 64, Density: 2}, fr.next()%1_000_000)
		if err != nil {
			return nil, err
		}
		texts = append(texts, taskInput{name: inst.Name, text: inst.Content})
	}
	b := &sessionBench{seed: o.seed, shares: map[string]int{}}
	for i, in := range texts {
		sc, err := scriptSession(in, newRNG(sessionScriptSeed, fmt.Sprintf("session-%d", i)), revs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		for _, r := range sc.revs {
			b.shares[r.kind]++
		}
		b.scripts = append(b.scripts, sc)
	}
	return b, nil
}

func findTask(root, name string) (string, error) {
	m, err := filepath.Glob(filepath.Join(root, "testdata", "benchmarks", "*", name+".task"))
	if err != nil || len(m) != 1 {
		return "", fmt.Errorf("task %s not found under %s/testdata/benchmarks", name, root)
	}
	return m[0], nil
}

// scriptSession re-labels a base under open world and scripts its
// deltas: a seeded order of n/2 fact and n/2 example deltas.
func scriptSession(in taskInput, r *rng, n int) (sessionScript, error) {
	rl, err := openWorld(in.text)
	if err != nil {
		return sessionScript{}, err
	}
	if len(rl.inputs) == 0 {
		return sessionScript{}, fmt.Errorf("a base with materialized negation takes no fact deltas")
	}
	all := rl.positives()
	withheld := min(3, len(all)/2)
	var pos, held []atom
	for i, j := range r.perm(len(all)) {
		if i < withheld {
			held = append(held, all[j])
		} else {
			pos = append(pos, all[j])
		}
	}
	// A third of the sampled negatives are held back for add_neg deltas.
	neg := rl.negatives(r, max(len(pos), 6))
	heldNeg := append([]atom(nil), neg[len(neg)*2/3:]...)
	neg = neg[:len(neg)*2/3]
	base, err := rl.text(pos, neg)
	if err != nil {
		return sessionScript{}, err
	}
	sc := sessionScript{name: in.name, text: base}

	kinds := make([]string, n)
	for i := range kinds {
		kinds[i] = "example"
		if i%2 == 0 {
			kinds[i] = "fact"
		}
	}
	for i, j := range r.perm(n) {
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}

	var facts []atom
	exampleOps := 0
	for _, kind := range kinds {
		rev := revision{kind: kind}
		if kind == "fact" {
			for tries := 0; tries < 20 && rev.op == ""; tries++ {
				a := rl.randomAtom(r, rl.inputs[r.intn(len(rl.inputs))])
				if rl.present[a.String()] {
					continue
				}
				d, err := rl.derivedWith(append(facts[:len(facts):len(facts)], a))
				if err != nil {
					return sc, err
				}
				if anyIn(neg, d) || anyIn(heldNeg, d) {
					continue
				}
				facts = append(facts, a)
				rl.present[a.String()] = true
				rev.op, rev.atom = "add_fact", a
			}
			if rev.op == "" {
				return sc, fmt.Errorf("no fact keeps the intended program consistent")
			}
		} else {
			// Cycle add_pos, add_neg, remove_neg, skipping an op that
			// has nothing left to work on. Removed negatives go back to
			// the held pool.
			for try := 0; rev.op == "" && try < 3; try++ {
				switch (exampleOps + try) % 3 {
				case 0:
					if len(held) > 0 {
						rev.op, rev.atom = "add_pos", held[0]
						pos, held = append(pos, held[0]), held[1:]
					}
				case 1:
					if len(heldNeg) > 0 {
						rev.op, rev.atom = "add_neg", heldNeg[0]
						neg, heldNeg = append(neg, heldNeg[0]), heldNeg[1:]
					}
				default:
					if len(neg) > 1 {
						k := r.intn(len(neg))
						rev.op, rev.atom = "remove_neg", neg[k]
						heldNeg = append(heldNeg, neg[k])
						neg = append(neg[:k:k], neg[k+1:]...)
					}
				}
			}
			if rev.op == "" {
				return sc, fmt.Errorf("no example delta keeps the intended program consistent")
			}
			exampleOps++
		}
		rev.pos, rev.neg = keys(pos), keys(neg)
		sc.revs = append(sc.revs, rev)
	}
	return sc, nil
}

func anyIn(as []atom, set map[string]atom) bool {
	for _, a := range as {
		if _, ok := set[a.String()]; ok {
			return true
		}
	}
	return false
}

func (b *sessionBench) digest() string {
	parts := []string{fmt.Sprint(b.seed)}
	for _, sc := range b.scripts {
		parts = append(parts, sc.name, sc.text)
		for _, r := range sc.revs {
			parts = append(parts, r.op+" "+r.atom.String())
		}
	}
	return inputDigest(parts...)
}

func (b *sessionBench) measure(budget time.Duration, minSamples int, tr *tracer) (*phase, error) {
	ph := newPhase()
	ctx := context.Background()
	answers := map[string]string{} // pass-1 answer per revision
	var kept []*session.Session
	var rs replayStats
	var facts int64
	start := time.Now()
	for ph.more(start, budget, minSamples) {
		counts := map[string]int64{}
		runtime.GC() // outside timed code, so one pass's garbage is not collected in the next

		setup := processCPU()
		sessions := make([]*session.Session, len(b.scripts))
		for i, sc := range b.scripts {
			sp := tr.begin("task.parse", -1, i)
			tk, err := task.Parse(strings.NewReader(sc.text))
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sc.name, err)
			}
			counts["task.facts"] += int64(tk.RawInputCount)
			counts["relation.tuple_ids"] += int64(tk.Input.NumIDs())
			s, err := session.New(tk)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sc.name, err)
			}
			sp = tr.begin("session.solve_cold", -1, i)
			res, err := s.Solve(ctx, coreegs.Options{}, 0)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s: first solve: %w", sc.name, err)
			}
			if ph.passes == 0 {
				if err := checkVerdict(s.Task(), res.Unsat, res.Query); err != nil {
					ph.failures = append(ph.failures, fmt.Sprintf("%s: first solve: %v", sc.name, err))
				}
			}
			sessions[i] = s
		}
		ph.setups = append(ph.setups, (processCPU() - setup).Seconds())

		last := make([]coreegs.Result, len(sessions))
		for j := 0; j < len(b.scripts[0].revs); j++ {
			for _, i := range newRNG(b.seed, fmt.Sprintf("round-%d-%d", ph.passes, j)).perm(len(sessions)) {
				s := sessions[i]
				rev := b.scripts[i].revs[j]
				id := i*1000 + j
				db := s.Task().Input
				root := tr.begin("task", -1, id)
				t0, w0 := processCPU(), time.Now()
				sp := tr.begin("session.delta."+rev.kind, root, id)
				err := applyDelta(s, rev)
				tr.end(sp)
				idsBefore := db.NumIDs()
				var res coreegs.Result
				if err == nil {
					sp = tr.begin("session.solve."+rev.kind, root, id)
					res, err = s.Solve(ctx, coreegs.Options{}, 0)
					tr.end(sp)
				}
				answer := "unsat"
				if err == nil && !res.Unsat {
					answer, err = renderTraced(tr, root, id, res.Query, s.Task())
				}
				lat := processCPU() - t0
				tr.end(root)
				ph.busy += lat
				ph.wallBusy += time.Since(w0)

				counts["relation.ids_added_by_solve"] += int64(db.NumIDs() - idsBefore)
				addStats(counts, res.Stats)
				counts["session.revisions."+rev.kind]++
				counts["session.rule_evals."+rev.kind] += int64(res.Stats.RuleEvals)
				counts["session.memo_hits."+rev.kind] += int64(res.Stats.MemoHits)
				counts["program_literals"] += int64(res.Query.Size())
				if err == nil {
					key := fmt.Sprintf("%s revision %d (%s %s)", b.scripts[i].name, j+1, rev.op, rev.atom)
					err = ph.sameAnswer(answers, key, answer, func() error {
						return checkRevision(s.Task(), res, rev)
					})
				}
				ph.task(lat, err)
				ph.sampleRSS()
				last[i] = res
			}
		}
		// Replays run after the last revision, so the tuples they intern
		// cannot change any counted revision.
		if tr != nil {
			for i, s := range sessions {
				if !last[i].Unsat {
					if err := replay(tr, -1, i, last[i].Query, s.Task().Input, &rs); err != nil {
						ph.failures = append(ph.failures, fmt.Sprintf("%s: replay: %v", b.scripts[i].name, err))
					}
				}
			}
		}
		facts += counts["task.facts"]
		ph.endPass(counts)
		kept = sessions
	}
	ph.heldMemory(kept)
	total := b.shares["fact"] + b.shares["example"]
	ph.info["delta_share_fact"] = float64(b.shares["fact"]) / float64(total)
	ph.info["delta_share_example"] = float64(b.shares["example"]) / float64(total)
	if tr != nil {
		engineLayers(ph, tr, rs, facts)
		l := ph.layer
		// egs.synth_ms covers the timed revision solves of both kinds.
		nf, df := tr.total("session.solve.fact")
		ne, de := tr.total("session.solve.example")
		if nf+ne > 0 {
			l["egs.synth_ms"] = float64(df+de) / float64(nf+ne) / float64(time.Millisecond)
		}
		for _, kind := range []string{"fact", "example"} {
			l["session.delta_us."+kind] = tr.mean("session.delta."+kind, time.Microsecond)
			l["session.solve_ms."+kind] = tr.mean("session.solve."+kind, time.Millisecond)
			if n := ph.exact["session.revisions."+kind]; n > 0 {
				l["session.rule_evals_per_revision."+kind] = float64(ph.exact["session.rule_evals."+kind]) / float64(n)
				l["session.memo_hits_per_revision."+kind] = float64(ph.exact["session.memo_hits."+kind]) / float64(n)
			}
		}
	}
	return ph, nil
}

func applyDelta(s *session.Session, rev revision) error {
	a := rev.atom
	switch rev.op {
	case "add_fact":
		return s.AddFact(a.rel, a.args...)
	case "add_pos":
		return s.AddExample(true, a.rel, a.args...)
	case "add_neg":
		return s.AddExample(false, a.rel, a.args...)
	case "remove_neg":
		return s.RemoveExample(a.rel, a.args...)
	}
	return fmt.Errorf("unknown delta op %q", rev.op)
}

// renderTraced renders a program as Datalog and SQL, with spans.
func renderTraced(tr *tracer, parent, id int, q query.UCQ, tk *task.Task) (string, error) {
	sp := tr.begin("query.render", parent, id)
	datalog := q.String(tk.Schema, tk.Domain)
	tr.end(sp)
	sp = tr.begin("sqlgen.render", parent, id)
	sql, err := sqlgen.UCQ(q, tk.Schema, tk.Domain)
	tr.end(sp)
	return datalog + "\n" + sql, err
}

// checkRevision checks a revision's program against the scripted
// labels over the session's current database.
func checkRevision(tk *task.Task, res coreegs.Result, rev revision) error {
	if res.Unsat {
		return fmt.Errorf("unsat, but the intended program is consistent")
	}
	return checkLabels(res.Query, tk.Input, tk.Schema, tk.Domain, rev.pos, rev.neg, false)
}
