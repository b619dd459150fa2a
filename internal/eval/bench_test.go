package eval_test

import (
	"strings"
	"testing"

	"github.com/egs-synthesis/egs/internal/bench"
	"github.com/egs-synthesis/egs/internal/datagen"
	"github.com/egs-synthesis/egs/internal/datagen/family"
	"github.com/egs-synthesis/egs/internal/eval"
	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/relation"
	"github.com/egs-synthesis/egs/internal/task"
)

// evalBenchTasks are representative tasks from the testdata suite,
// one per category, each with an intended program to evaluate.
var evalBenchTasks = []struct {
	name, path string
}{
	{"traffic", "../../testdata/benchmarks/knowledge-discovery/traffic.task"},
	{"kinship", "../../testdata/benchmarks/knowledge-discovery/kinship.task"},
	{"sql01", "../../testdata/benchmarks/database-queries/sql01.task"},
	{"reach", "../../testdata/benchmarks/program-analysis/reach.task"},
}

// giantBenchTasks are the datagen giants: generated instances an
// order of magnitude beyond the paper benchmarks (DESIGN.md §5).
var giantBenchTasks = []struct {
	name string
	gen  func() string
}{
	{"agent", datagen.GenAgent},
	{"polysite", datagen.GenPolysite},
	{"rvcheck", datagen.GenRvcheck},
}

func loadGiant(b *testing.B, gen func() string) *task.Task {
	b.Helper()
	t, err := task.Parse(strings.NewReader(gen()))
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// famBenchClasses is the scenario-factory axis: generated instances
// at the large default scale (domain 96, density 2.5), one per
// structurally distinct program class, so the evaluator is measured
// over chains, stars, and negation at sizes the authored suite does
// not reach.
var famBenchClasses = []string{"chain", "star", "negation"}

func loadFamily(b *testing.B, class string) *task.Task {
	b.Helper()
	inst, err := family.Generate(family.Spec{Class: class, Domain: 96, Density: 2.5}, 1)
	if err != nil {
		b.Fatal(err)
	}
	t, err := task.Parse(strings.NewReader(inst.Content))
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// BenchmarkRuleOutputs measures the evaluator's hot path as the
// synthesizers drive it: materializing the output set of a candidate
// rule over a task's input database as a TupleSet of dense ids
// (RuleOutputIDs). The scaled-traffic case stresses set sizes far
// beyond the paper benchmarks.
func BenchmarkRuleOutputs(b *testing.B) {
	for _, tc := range evalBenchTasks {
		t, err := task.Load(tc.path)
		if err != nil {
			b.Fatal(err)
		}
		rules := t.Intended().Rules
		if len(rules) == 0 {
			b.Fatalf("%s: no intended program", tc.name)
		}
		db := t.Example().DB
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range rules {
					eval.RuleOutputIDs(r, db)
				}
			}
		})
	}
	for _, tc := range giantBenchTasks {
		t := loadGiant(b, tc.gen)
		rules := t.Intended().Rules
		db := t.Example().DB
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range rules {
					eval.RuleOutputIDs(r, db)
				}
			}
		})
	}
	for _, class := range famBenchClasses {
		t := loadFamily(b, class)
		rules := t.Intended().Rules
		db := t.Example().DB
		b.Run("fam-"+class+"-d96", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range rules {
					eval.RuleOutputIDs(r, db)
				}
			}
		})
	}
	st, err := bench.ScaledTraffic(120)
	if err != nil {
		b.Fatal(err)
	}
	rules := st.Intended().Rules
	db := st.Example().DB
	b.Run("scaled-traffic-120", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range rules {
				eval.RuleOutputIDs(r, db)
			}
		}
	})
}

// BenchmarkRuleOutputsBatch is the same workload with the batch join
// strategy forced, so the columnar kernel is measured even on the
// small paper tasks where the cost heuristic would pick backtracking.
// The batchjoins/op metric counts batch evaluation sessions per
// iteration (via the strategy counters, hence pool tracing).
func BenchmarkRuleOutputsBatch(b *testing.B) {
	defer eval.ForceStrategy(eval.StrategyBatch)()
	eval.EnablePoolTracing()
	defer eval.DisablePoolTracing()

	run := func(b *testing.B, rules []query.Rule, db *relation.Database) {
		b.ReportAllocs()
		batch0, _, _ := eval.StrategyCounters()
		for i := 0; i < b.N; i++ {
			for _, r := range rules {
				eval.RuleOutputIDs(r, db)
			}
		}
		batch, _, _ := eval.StrategyCounters()
		b.ReportMetric(float64(batch-batch0)/float64(b.N), "batchjoins/op")
	}
	for _, tc := range evalBenchTasks {
		t, err := task.Load(tc.path)
		if err != nil {
			b.Fatal(err)
		}
		rules := t.Intended().Rules
		db := t.Example().DB
		b.Run(tc.name, func(b *testing.B) { run(b, rules, db) })
	}
	for _, tc := range giantBenchTasks {
		t := loadGiant(b, tc.gen)
		b.Run(tc.name, func(b *testing.B) {
			run(b, t.Intended().Rules, t.Example().DB)
		})
	}
	for _, class := range famBenchClasses {
		t := loadFamily(b, class)
		b.Run("fam-"+class+"-d96", func(b *testing.B) {
			run(b, t.Intended().Rules, t.Example().DB)
		})
	}
	st, err := bench.ScaledTraffic(120)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("scaled-traffic-120", func(b *testing.B) {
		run(b, st.Intended().Rules, st.Example().DB)
	})
}
