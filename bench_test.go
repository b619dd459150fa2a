// Benchmarks regenerating the paper's evaluation, one per table and
// figure (see DESIGN.md's experiment index and EXPERIMENTS.md for
// recorded results). Run:
//
//	go test -bench=. -benchmem
//
// Each benchmark iteration sweeps a suite slice with a bounded
// per-task timeout, so the syntax-guided baselines time out exactly
// where the paper's do; the reported per-op time is the wall-clock
// cost of the sweep. For paper-scale timeouts use cmd/egs-bench,
// which defaults to the paper's 300s budget.
package egs_test

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/egs-synthesis/egs/internal/bench"
	coreegs "github.com/egs-synthesis/egs/internal/egs"
	"github.com/egs-synthesis/egs/internal/eval"
	"github.com/egs-synthesis/egs/internal/ilasp"
	"github.com/egs-synthesis/egs/internal/parser"
	"github.com/egs-synthesis/egs/internal/prosynth"
	"github.com/egs-synthesis/egs/internal/scythe"
	"github.com/egs-synthesis/egs/internal/synth"
	"github.com/egs-synthesis/egs/internal/task"
)

// benchTimeout bounds each (tool, task) run inside benchmarks. The
// paper uses 300s; benchmarks use a tighter bound so that a full
// -bench=. sweep stays tractable while preserving who-times-out.
const benchTimeout = 2 * time.Second

func loadBenchSuite(b *testing.B) *bench.Suite {
	b.Helper()
	s, err := bench.LoadSuite("testdata/benchmarks")
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// sweep runs one tool over a task slice once per iteration and
// reports aggregate counters.
func sweep(b *testing.B, tool synth.Synthesizer, tasks []*task.Task) {
	b.Helper()
	b.ReportAllocs()
	var solved, unsat, exhausted, timedOut int
	for i := 0; i < b.N; i++ {
		solved, unsat, exhausted, timedOut = 0, 0, 0, 0
		for _, tk := range tasks {
			rec := bench.Run(context.Background(), tool, tk, benchTimeout)
			switch rec.Outcome {
			case bench.Solved:
				solved++
			case bench.ProvedUnsat:
				unsat++
			case bench.SpaceExhausted:
				exhausted++
			case bench.TimedOut:
				timedOut++
			case bench.Failed:
				b.Fatalf("%s failed on %s: %v", tool.Name(), rec.Task, rec.Err)
			}
		}
	}
	b.ReportMetric(float64(solved), "solved")
	b.ReportMetric(float64(unsat), "unsat")
	b.ReportMetric(float64(exhausted), "exhausted")
	b.ReportMetric(float64(timedOut), "timeouts")
}

// BenchmarkTable1Characteristics regenerates Table 1 (suite loading
// plus characteristics rendering).
func BenchmarkTable1Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := bench.LoadSuite("testdata/benchmarks")
		if err != nil {
			b.Fatal(err)
		}
		if err := bench.WriteTable1(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Cactus regenerates the Figure 4 sweep: each tool
// configuration over the 79 realizable tasks. EGS must solve all of
// them; the baselines time out where the paper's do.
func BenchmarkFigure4Cactus(b *testing.B) {
	s := loadBenchSuite(b)
	for _, tool := range []synth.Synthesizer{
		&synth.EGS{},
		&scythe.Synthesizer{},
		&ilasp.Synthesizer{Source: ilasp.TaskSpecific},
		&prosynth.Synthesizer{Source: ilasp.TaskSpecific},
	} {
		tool := tool
		b.Run(tool.Name(), func(b *testing.B) { sweep(b, tool, s.Realizable) })
	}
}

// BenchmarkTable2Unrealizable regenerates Table 2: the 7 unsat tasks
// under every tool configuration, including the task-agnostic ones.
func BenchmarkTable2Unrealizable(b *testing.B) {
	s := loadBenchSuite(b)
	for _, tool := range bench.ToolSet() {
		tool := tool
		b.Run(tool.Name(), func(b *testing.B) { sweep(b, tool, s.Unrealizable) })
	}
}

func domainBench(b *testing.B, category string) {
	s := loadBenchSuite(b)
	tasks := s.ByCategory(category)
	for _, tool := range []synth.Synthesizer{
		&synth.EGS{},
		&scythe.Synthesizer{},
		&ilasp.Synthesizer{Source: ilasp.TaskSpecific},
		&prosynth.Synthesizer{Source: ilasp.TaskSpecific},
	} {
		tool := tool
		b.Run(tool.Name(), func(b *testing.B) { sweep(b, tool, tasks) })
	}
}

// BenchmarkTable3KnowledgeDiscovery regenerates the Table 3 runtimes.
func BenchmarkTable3KnowledgeDiscovery(b *testing.B) {
	domainBench(b, "knowledge-discovery")
}

// BenchmarkTable4ProgramAnalysis regenerates the Table 4 runtimes.
func BenchmarkTable4ProgramAnalysis(b *testing.B) {
	domainBench(b, "program-analysis")
}

// BenchmarkTable5DatabaseQueries regenerates the Table 5 runtimes.
func BenchmarkTable5DatabaseQueries(b *testing.B) {
	domainBench(b, "database-queries")
}

// BenchmarkQualityOfPrograms regenerates the Section 6.4 comparison
// of synthesized versus intended programs.
func BenchmarkQualityOfPrograms(b *testing.B) {
	s := loadBenchSuite(b)
	var same, matched int
	for i := 0; i < b.N; i++ {
		rows, err := bench.CompareQuality(context.Background(), s.Realizable)
		if err != nil {
			b.Fatal(err)
		}
		same, matched = 0, 0
		for _, r := range rows {
			if r.SameOutputs {
				same++
			}
			if r.Matched {
				matched++
			}
		}
	}
	b.ReportMetric(float64(same), "same-outputs")
	b.ReportMetric(float64(matched), "syntactic-match")
}

// BenchmarkAblationPriority compares the paper's two priority
// functions (Section 4.3) over the realizable suite.
func BenchmarkAblationPriority(b *testing.B) {
	s := loadBenchSuite(b)
	for _, cfg := range []struct {
		name string
		opts coreegs.Options
	}{
		{"p2-score", coreegs.Options{Priority: coreegs.P2}},
		{"p1-size", coreegs.Options{Priority: coreegs.P1}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			sweep(b, &synth.EGS{Label: "egs-" + cfg.name, Options: cfg.opts}, s.Realizable)
		})
	}
}

// BenchmarkAblationQuickUnsat compares exhaustive unsat proofs (the
// paper's behaviour) with the Lemma 4.2 fast path on the
// unrealizable tasks.
func BenchmarkAblationQuickUnsat(b *testing.B) {
	s := loadBenchSuite(b)
	for _, cfg := range []struct {
		name string
		opts coreegs.Options
	}{
		{"exhaustive", coreegs.Options{}},
		{"lemma4.2", coreegs.Options{QuickUnsat: true}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			sweep(b, &synth.EGS{Label: "egs-" + cfg.name, Options: cfg.opts}, s.Unrealizable)
		})
	}
}

// BenchmarkAblationIndistinguishability measures the TRANSIT-style
// output-signature pruning in the naive enumerative baseline on the
// traffic running example (Section 2.1's search-space discussion).
func BenchmarkAblationIndistinguishability(b *testing.B) {
	s := loadBenchSuite(b)
	var traffic *task.Task
	for _, tk := range s.All {
		if tk.Name == "traffic" {
			traffic = tk
		}
	}
	for _, tool := range bench.AblationToolSet() {
		name := tool.Name()
		if name != "enumerative" && name != "enumerative+indist" {
			continue
		}
		tool := tool
		b.Run(name, func(b *testing.B) { sweep(b, tool, []*task.Task{traffic}) })
	}
}

// BenchmarkEvaluator measures the indexed join evaluator against the
// naive reference on the paper's Equation 1 query over the traffic
// database (the synthesizer's inner loop).
func BenchmarkEvaluator(b *testing.B) {
	s := loadBenchSuite(b)
	var traffic *task.Task
	for _, tk := range s.All {
		if tk.Name == "traffic" {
			traffic = tk
		}
	}
	rule, err := parser.ParseRule(
		"Crashes(x) :- Intersects(x, y), HasTraffic(x), HasTraffic(y), GreenSignal(x), GreenSignal(y).",
		traffic.Schema, traffic.Domain)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := eval.RuleOutputIDs(rule, traffic.Input).Len(); got != 2 {
				b.Fatalf("outputs = %d", got)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := len(eval.EvalRuleNaive(rule, traffic.Input)); got != 2 {
				b.Fatalf("outputs = %d", got)
			}
		}
	})
}

// BenchmarkAblationParallel measures the parallel-explanation mode
// (our extension; the paper's tool is single-threaded) against the
// sequential algorithm on the whole realizable suite.
func BenchmarkAblationParallel(b *testing.B) {
	s := loadBenchSuite(b)
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, tk := range s.Realizable {
					res, err := coreegs.SynthesizeParallel(context.Background(), tk, coreegs.Options{}, workers)
					if err != nil || res.Unsat {
						b.Fatalf("%s: res=%+v err=%v", tk.Name, res, err)
					}
				}
			}
		})
	}
}

// BenchmarkScalability measures EGS end-to-end on generated
// traffic-family instances of growing size — the "larger input data"
// direction of the paper's Section 8. Instances are realizable by
// construction; the reported per-op time is one full synthesis.
func BenchmarkScalability(b *testing.B) {
	for _, n := range []int{8, 32, 128, 512} {
		n := n
		b.Run(fmt.Sprintf("streets=%d", n), func(b *testing.B) {
			tk, err := bench.ScaledTraffic(n)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := coreegs.Synthesize(context.Background(), tk, coreegs.Options{})
				if err != nil || res.Unsat {
					b.Fatalf("res=%+v err=%v", res, err)
				}
			}
			b.ReportMetric(float64(tk.Input.Size()), "tuples")
		})
	}
}

// BenchmarkEvaluatorScale compares the indexed evaluator against the
// naive reference as the database grows; the index wins as soon as
// extents stop fitting in a few cache lines (the crossover the
// DESIGN.md ablation calls out).
func BenchmarkEvaluatorScale(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		tk, err := bench.ScaledTraffic(n)
		if err != nil {
			b.Fatal(err)
		}
		rule, err := parser.ParseRule(
			"Crashes(x) :- Intersects(x, y), HasTraffic(x), HasTraffic(y), GreenSignal(x), GreenSignal(y).",
			tk.Schema, tk.Domain)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("indexed/streets=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eval.RuleOutputIDs(rule, tk.Input)
			}
		})
		b.Run(fmt.Sprintf("naive/streets=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eval.EvalRuleNaive(rule, tk.Input)
			}
		})
	}
}

// BenchmarkSynthesizeTraffic measures end-to-end synthesis latency
// on the running example (the paper's Section 2.3 headline: EGS
// returns in well under a second).
func BenchmarkSynthesizeTraffic(b *testing.B) {
	s := loadBenchSuite(b)
	var traffic *task.Task
	for _, tk := range s.All {
		if tk.Name == "traffic" {
			traffic = tk
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := coreegs.Synthesize(context.Background(), traffic, coreegs.Options{})
		if err != nil || res.Unsat {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}
