package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/egs-synthesis/egs/internal/datagen/family"
	coreegs "github.com/egs-synthesis/egs/internal/egs"
	"github.com/egs-synthesis/egs/internal/task"
)

// The two cold, in-process workloads. A pass parses and prepares every
// task (one set-up sample), then solves each in a seeded order with the
// paper's configuration (zero egs.Options) and renders the program as
// Datalog and SQL (one latency sample per task).

// taskInput is one task file of an in-process workload.
type taskInput struct{ name, text string }

type inprocBench struct {
	inputs []taskInput
	seed   uint64
}

// genPaperSuite reads the 86 task files of the paper's suite.
func genPaperSuite(o options) (bench, error) {
	files, err := filepath.Glob(filepath.Join(o.root, "testdata", "benchmarks", "*", "*.task"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no task files under %s/testdata/benchmarks", o.root)
	}
	sort.Strings(files)
	b := &inprocBench{seed: o.seed}
	for i, f := range files {
		if o.quick && i%8 != 0 {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		b.inputs = append(b.inputs, taskInput{name: strings.TrimSuffix(filepath.Base(f), ".task"), text: string(data)})
	}
	return b, nil
}

// familySizes and familyPerClass shape family-large: every class at
// each size, familyPerClass instances per (class, size).
var (
	familySizes    = []int{256, 512}
	familyPerClass = 3
)

// pinnedChainSeeds are the chain-class instance seeds. Chain instances
// have a heavy-tailed cost in the instance seed (over 30 seeds: median
// 13 ms at d256 and 30 ms at d512, maximum 4.9 s and 87 s), so a
// seeded draw could not finish inside a run; the other four classes
// draw their instance seeds from the workload seed.
var pinnedChainSeeds = []uint64{1, 2, 3}

// genFamilyLarge generates scenario-factory instances of all five
// classes at d256 and d512, density 2.
func genFamilyLarge(o options) (bench, error) {
	sizes, per := familySizes, familyPerClass
	if o.quick {
		sizes, per = []int{32}, 1
	}
	r := newRNG(o.seed, "family-large")
	b := &inprocBench{seed: o.seed}
	for _, d := range sizes {
		for _, class := range family.Classes() {
			for k := 0; k < per; k++ {
				seed := r.next() % 1_000_000
				if class == "chain" {
					seed = pinnedChainSeeds[k%len(pinnedChainSeeds)]
				}
				inst, err := family.Generate(family.Spec{Class: class, Domain: d, Density: 2}, seed)
				if err != nil {
					return nil, err
				}
				b.inputs = append(b.inputs, taskInput{name: inst.Name, text: inst.Content})
			}
		}
	}
	return b, nil
}

func (b *inprocBench) digest() string {
	parts := []string{fmt.Sprint(b.seed)}
	for _, in := range b.inputs {
		parts = append(parts, in.name, in.text)
	}
	return inputDigest(parts...)
}

func (b *inprocBench) measure(budget time.Duration, minSamples int, tr *tracer) (*phase, error) {
	ph := newPhase()
	answers := map[string]string{} // pass-1 answer per input
	var kept []*task.Task
	var rs replayStats
	var facts int64
	start := time.Now()
	for ph.more(start, budget, minSamples) {
		order := newRNG(b.seed, fmt.Sprintf("order-%d", ph.passes)).perm(len(b.inputs))
		counts := map[string]int64{}
		runtime.GC() // outside timed code, so one pass's garbage is not collected in the next

		setup := processCPU()
		tasks := make([]*task.Task, len(order))
		for i, idx := range order {
			sp := tr.begin("task.parse", -1, idx)
			tk, err := task.Parse(strings.NewReader(b.inputs[idx].text))
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.inputs[idx].name, err)
			}
			tasks[i] = tk
		}
		ph.setups = append(ph.setups, (processCPU() - setup).Seconds())

		for i, idx := range order {
			tk := tasks[i]
			counts["task.facts"] += int64(tk.RawInputCount)
			idsBefore := tk.Input.NumIDs()
			counts["relation.tuple_ids"] += int64(idsBefore)

			root := tr.begin("task", -1, idx)
			t0, w0 := processCPU(), time.Now()
			sp := tr.begin("egs.synthesize", root, idx)
			res, err := coreegs.Synthesize(context.Background(), tk, coreegs.Options{})
			tr.end(sp)
			answer := "unsat"
			if err == nil && !res.Unsat {
				answer, err = renderTraced(tr, root, idx, res.Query, tk)
			}
			lat := processCPU() - t0
			tr.end(root)
			ph.busy += lat
			ph.wallBusy += time.Since(w0)

			// Untimed: counts and the correctness gate. The first pass
			// checks each answer; later passes must repeat it exactly.
			counts["relation.ids_added_by_solve"] += int64(tk.Input.NumIDs() - idsBefore)
			addStats(counts, res.Stats)
			counts["program_literals"] += int64(res.Query.Size())
			if err == nil {
				err = ph.sameAnswer(answers, b.inputs[idx].name, answer, func() error {
					return checkVerdict(tk, res.Unsat, res.Query)
				})
			}
			if err == nil && tr != nil {
				err = replay(tr, root, idx, res.Query, tk.Input, &rs)
			}
			ph.task(lat, err)
			ph.sampleRSS()
		}
		facts += counts["task.facts"]
		ph.endPass(counts)
		kept = tasks
	}
	ph.heldMemory(kept)
	if tr != nil {
		engineLayers(ph, tr, rs, facts)
	}
	return ph, nil
}

// addStats adds one synthesis run's search counters to a pass's counts.
func addStats(counts map[string]int64, st coreegs.Stats) {
	counts["egs.contexts_popped"] += int64(st.ContextsPopped)
	counts["egs.rule_evals"] += int64(st.RuleEvals)
	counts["egs.memo_hits"] += int64(st.MemoHits)
	counts["egs.max_queue"] = max(counts["egs.max_queue"], int64(st.MaxQueue))
}

// engineLayers fills the per-layer metrics of the engine layers from a
// traced phase's spans and its per-pass exact counts, and reports which
// strategy the auto heuristic picked for the final rules.
func engineLayers(ph *phase, tr *tracer, rs replayStats, facts int64) {
	if rs.rules > 0 {
		ph.info["auto_strategy_batch_share"] = float64(rs.autoBatch) / float64(rs.rules)
	}
	l := ph.layer
	l["task.parse_ms"] = tr.mean("task.parse", time.Millisecond)
	if _, parse := tr.total("task.parse"); parse > 0 {
		l["task.facts_per_s"] = float64(facts) / parse.Seconds()
	}
	for _, k := range []string{"relation.tuple_ids", "relation.ids_added_by_solve",
		"egs.contexts_popped", "egs.rule_evals", "egs.memo_hits", "egs.max_queue"} {
		l[k] = float64(ph.exact[k])
	}
	if n := ph.exact["egs.rule_evals"] + ph.exact["egs.memo_hits"]; n > 0 {
		l["egs.memo_hit_ratio"] = float64(ph.exact["egs.memo_hits"]) / float64(n)
	}
	l["egs.synth_ms"] = tr.mean("egs.synthesize", time.Millisecond)
	l["eval.replay_auto_us"] = tr.mean("eval.replay_auto", time.Microsecond)
	l["eval.replay_backtrack_us"] = tr.mean("eval.replay_backtrack", time.Microsecond)
	l["eval.replay_batch_us"] = tr.mean("eval.replay_batch", time.Microsecond)
	l["query.render_us"] = tr.mean("query.render", time.Microsecond)
	l["sqlgen.render_us"] = tr.mean("sqlgen.render", time.Microsecond)
}
