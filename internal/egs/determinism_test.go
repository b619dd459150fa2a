package egs

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/egs-synthesis/egs/internal/eval"
	"github.com/egs-synthesis/egs/internal/relation"
	"github.com/egs-synthesis/egs/internal/task"
	"github.com/egs-synthesis/egs/internal/trace"
)

// determinismTasks spans realizable tasks of several shapes (single
// rule, union, multi-column, negation-heavy) plus unrealizable ones,
// so the differential covers both verdicts and the Alternatives-style
// multi-cell searches.
var determinismTasks = []string{
	"../../testdata/benchmarks/knowledge-discovery/traffic.task",
	"../../testdata/benchmarks/knowledge-discovery/grandparent.task",
	"../../testdata/benchmarks/knowledge-discovery/kinship.task",
	"../../testdata/benchmarks/knowledge-discovery/predecessor.task",
	"../../testdata/benchmarks/knowledge-discovery/undirected-edge.task",
	"../../testdata/benchmarks/database-queries/sql01.task",
	"../../testdata/benchmarks/database-queries/sql05.task",
	"../../testdata/benchmarks/program-analysis/reach.task",
	"../../testdata/benchmarks/program-analysis/block-succ.task",
	"../../testdata/benchmarks/unrealizable/isomorphism.task",
	"../../testdata/benchmarks/unrealizable/traffic-partial.task",
}

// fingerprint reduces a synthesis outcome to what the determinism
// contract promises: the Unsat verdict and the exact sequence of
// learned rules, identified by canonical key. Stats are deliberately
// excluded — under parallel assessment two copies of one canonical
// rule can land in the same batch and both miss the memo, perturbing
// RuleEvals/MemoHits without affecting any result.
func fingerprint(res Result) []string {
	fp := []string{}
	if res.Unsat {
		fp = append(fp, "UNSAT")
		if res.Witness != nil && res.Witness.ViaLemma42 {
			fp = append(fp, "lemma4.2")
		}
		return fp
	}
	for _, r := range res.Query.Rules {
		fp = append(fp, r.CanonicalKey())
	}
	return fp
}

// TestAssessParallelismDeterministic is the differential test for the
// parallel assessment pool: for every task and both priority
// functions, AssessParallelism ∈ {2, 8} must learn the identical rule
// list (by canonical key, in order) and reach the identical Unsat
// verdict as the sequential search.
func TestAssessParallelismDeterministic(t *testing.T) {
	for _, path := range determinismTasks {
		tk, err := task.Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, pri := range []Priority{P2, P1} {
			seqRes, err := Synthesize(context.Background(), tk, Options{Priority: pri})
			if err != nil {
				t.Fatalf("%s (%v) sequential: %v", path, pri, err)
			}
			want := fingerprint(seqRes)
			for _, par := range []int{2, 8} {
				// Reload: Synthesize freezes and mutates the task's
				// database (interned output tuples), so runs must not
				// share task state.
				tk2, err := task.Load(path)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				parRes, err := Synthesize(context.Background(), tk2,
					Options{Priority: pri, AssessParallelism: par})
				if err != nil {
					t.Fatalf("%s (%v) parallel=%d: %v", path, pri, par, err)
				}
				got := fingerprint(parRes)
				if len(got) != len(want) {
					t.Fatalf("%s (%v) parallel=%d: %d rules, sequential %d",
						path, pri, par, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s (%v) parallel=%d: rule %d diverges from sequential",
							path, pri, par, i)
					}
				}
				// Exploration effort must match too: the pool may not
				// change what gets pushed or popped, only who assesses.
				if parRes.Stats.ContextsPopped != seqRes.Stats.ContextsPopped ||
					parRes.Stats.ContextsPushed != seqRes.Stats.ContextsPushed {
					t.Errorf("%s (%v) parallel=%d: popped/pushed %d/%d, sequential %d/%d",
						path, pri, par,
						parRes.Stats.ContextsPopped, parRes.Stats.ContextsPushed,
						seqRes.Stats.ContextsPopped, seqRes.Stats.ContextsPushed)
				}
			}
		}
	}
}

// renderOutcome reduces a run to the exact bytes a user would see:
// the printed UCQ for realizable tasks, the rendered witness for
// unrealizable ones.
func renderOutcome(tk *task.Task, res Result) string {
	if res.Unsat {
		return "UNSAT\n" + res.Witness.String(tk.Schema, tk.Domain)
	}
	return res.Query.String(tk.Schema, tk.Domain)
}

// statsFull renders every Stats counter except Duration, which is
// wall-clock and excluded by contract (see the egslint/nodetsource
// suppressions in egs.go).
func statsFull(st Stats) string {
	return fmt.Sprintf("pushed=%d popped=%d evals=%d memo=%d maxq=%d cells=%d rules=%d",
		st.ContextsPushed, st.ContextsPopped, st.RuleEvals, st.MemoHits,
		st.MaxQueue, st.CellsSolved, st.RulesLearned)
}

// statsSched additionally drops RuleEvals and MemoHits: under
// parallel assessment two copies of one canonical rule can land in
// the same batch and both miss the memo, legitimately perturbing
// those two counters (and only those) across parallelism levels.
func statsSched(st Stats) string {
	return fmt.Sprintf("pushed=%d popped=%d maxq=%d cells=%d rules=%d",
		st.ContextsPushed, st.ContextsPopped, st.MaxQueue, st.CellsSolved, st.RulesLearned)
}

// TestSynthesisByteGolden strengthens the differential above from
// canonical-key equality to byte equality: for every task, the
// printed query (or witness) must be bit-identical across repeat runs,
// across AssessParallelism ∈ {1, 8}, AND across tracing on vs off; the
// Stats counters must be identical across repeats at fixed parallelism
// (traced runs included — the recorder sits outside the search's
// decision path by contract) and — minus the documented memo counters
// — across parallelism. Any map-ordered rendering, scheduling, or
// instrumentation leak shows up here as a byte diff.
func TestSynthesisByteGolden(t *testing.T) {
	for _, path := range determinismTasks {
		type run struct {
			par    int
			traced bool
			text   string
			full   string
			sched  string
		}
		var runs []run
		for _, par := range []int{1, 8} {
			// Two untraced repeats, then one traced run at each level.
			for _, traced := range []bool{false, false, true} {
				// Reload per run: Synthesize freezes and mutates the
				// task's database.
				tk, err := task.Load(path)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				opts := Options{AssessParallelism: par}
				var col *trace.Collector
				if traced {
					col = trace.NewCollector()
					opts.Trace = col
				}
				res, err := Synthesize(context.Background(), tk, opts)
				if err != nil {
					t.Fatalf("%s parallel=%d traced=%v: %v", path, par, traced, err)
				}
				if traced && col.Len() == 0 {
					t.Errorf("%s parallel=%d: traced run recorded no events", path, par)
				}
				runs = append(runs, run{
					par:    par,
					traced: traced,
					text:   renderOutcome(tk, res),
					full:   statsFull(res.Stats),
					sched:  statsSched(res.Stats),
				})
			}
		}
		golden := runs[0]
		for _, r := range runs[1:] {
			if r.text != golden.text {
				t.Errorf("%s: rendered output diverges between parallel=%d/traced=%v and parallel=%d/traced=%v:\n--- golden\n%s\n--- got\n%s",
					path, golden.par, golden.traced, r.par, r.traced, golden.text, r.text)
			}
			if r.sched != golden.sched {
				t.Errorf("%s: scheduling-independent stats diverge between parallel=%d/traced=%v and parallel=%d/traced=%v: %s vs %s",
					path, golden.par, golden.traced, r.par, r.traced, golden.sched, r.sched)
			}
			if r.par == golden.par && r.full != golden.full {
				t.Errorf("%s: run at parallel=%d (traced=%v) changed stats: %s vs %s",
					path, r.par, r.traced, golden.full, r.full)
			}
		}
		// Runs at parallelism 8 — two untraced repeats and the traced
		// run — must also agree on the full counters among themselves
		// (golden is a parallelism-1 run, so compare them directly).
		for _, r := range runs[4:] {
			if r.full != runs[3].full {
				t.Errorf("%s: runs at parallel=8 disagree on stats: %s vs %s (traced=%v)",
					path, runs[3].full, r.full, r.traced)
			}
		}
	}
}

// TestSynthesisByteGoldenStrategies is the forced-strategy
// differential: for every task, synthesis with the join strategy
// pinned to backtracking and pinned to batch must produce output
// byte-identical to the auto-heuristic run — and identical Stats
// counters, since strategies may only change how a rule is joined,
// never which tuples it derives and hence never any search decision.
func TestSynthesisByteGoldenStrategies(t *testing.T) {
	for _, path := range determinismTasks {
		var golden, goldenStats string
		for _, strat := range []eval.Strategy{eval.StrategyAuto, eval.StrategyBacktrack, eval.StrategyBatch} {
			// Reload per run: Synthesize freezes and mutates the task's
			// database.
			tk, err := task.Load(path)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			restore := eval.ForceStrategy(strat)
			res, err := Synthesize(context.Background(), tk, Options{})
			restore()
			if err != nil {
				t.Fatalf("%s strategy=%v: %v", path, strat, err)
			}
			text, stats := renderOutcome(tk, res), statsFull(res.Stats)
			if strat == eval.StrategyAuto {
				golden, goldenStats = text, stats
				continue
			}
			if text != golden {
				t.Errorf("%s: output under forced %v diverges from auto:\n--- auto\n%s\n--- %v\n%s",
					path, strat, golden, strat, text)
			}
			if stats != goldenStats {
				t.Errorf("%s: stats under forced %v diverge from auto: %s vs %s",
					path, strat, goldenStats, stats)
			}
		}
	}
}

// TestTraceRecorderRace shares one Collector between parallel
// searchers, each running parallel assessment, so `go test -race`
// exercises every Record call site concurrently. It also pins the
// merge order: Events must group shards by ascending searcher id
// regardless of goroutine interleaving.
func TestTraceRecorderRace(t *testing.T) {
	tk, err := task.Load("../../testdata/benchmarks/knowledge-discovery/kinship.task")
	if err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector()
	res, err := SynthesizeParallel(context.Background(), tk,
		Options{AssessParallelism: 8, Trace: col}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unsat {
		t.Fatal("kinship unexpectedly unsat")
	}
	evs := col.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Searcher < evs[i-1].Searcher {
			t.Fatalf("event %d: searcher %d after searcher %d — merge not ordered",
				i, evs[i].Searcher, evs[i-1].Searcher)
		}
	}
}

// TestMemoReducesRuleEvals pins the tentpole's accounting: on traffic
// (whose cells repeatedly regenerate alpha-equivalent candidates from
// different anchor constants) the memo must convert a nonzero share
// of assessments into hits; RuleEvals counts only evaluations
// actually executed, and the two counters together cannot exceed the
// contexts pushed.
func TestMemoReducesRuleEvals(t *testing.T) {
	tk, err := task.Load("../../testdata/benchmarks/knowledge-discovery/traffic.task")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(context.Background(), tk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MemoHits == 0 {
		t.Error("memo recorded no hits on traffic")
	}
	if res.Stats.RuleEvals == 0 {
		t.Error("no rule evaluations recorded")
	}
	if res.Stats.MemoHits+res.Stats.RuleEvals > res.Stats.ContextsPushed {
		t.Errorf("evals %d + hits %d exceed contexts pushed %d",
			res.Stats.RuleEvals, res.Stats.MemoHits, res.Stats.ContextsPushed)
	}
}

// TestConcurrentAssessRace drives many assessors concurrently against
// one shared example — concurrent key building, generalize/EvalRule
// traffic through Database.InternTuple, and the shared memo — so `go
// test -race` exercises the lock-free read path, the per-slot scratch,
// and the memo lock. The assertions
// are secondary; the race detector is the point.
func TestConcurrentAssessRace(t *testing.T) {
	tk, err := task.Load("../../testdata/benchmarks/knowledge-discovery/kinship.task")
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Prepare(); err != nil {
		t.Fatal(err)
	}
	ex := tk.Example()
	db := ex.DB
	target := tk.Pos[0]
	asr := &assessor{ex: ex, memo: NewMemo()}
	p := &cellParams{target: target, i: len(target.Args)}
	p.totalForbidden, p.countKnown = ex.CountForbidden(target.Rel, p.i, len(target.Args))

	seeds := db.Mentioning(target.Args[p.i-1])
	if len(seeds) == 0 {
		t.Fatal("no seed contexts")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine owns its slot and arena, as a searcher
			// and a pooled batch position do.
			var sl assessSlot
			var arena idArena
			for rep := 0; rep < 20; rep++ {
				id := seeds[(w+rep)%len(seeds)]
				c := &ectx{ids: arena.copy([]relation.TupleID{id})}
				asr.assess(&sl, c, p)
				// Grow one two-tuple context too, to intern fresh
				// derived tuples from several goroutines at once.
				for _, other := range db.Mentioning(target.Args[0]) {
					if other != id {
						asr.assess(&sl, &ectx{ids: arena.extend(c.ids, other)}, p)
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
