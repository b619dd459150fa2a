// Command perfbench is the repository benchmark. It drives the
// synthesizer only through its exported entry points (task parsing,
// egs.Synthesize, sessions, the egs-serve HTTP API), times the calls
// into each layer from outside, and checks every answer with an
// evaluator that shares no join code with the kernels under test.
//
// One invocation measures one workload for a fixed time:
//
//	perfbench -workload paper-suite -seed 1 -seconds 15 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 it measures the workload untraced and then traced for half
// the time each and reports the per-layer metrics, computed from spans
// recorded around every layer call, plus the tracing overhead. The last
// line of standard output is the result object; the line before it is
// a report with the host and input fingerprint. -selfcheck runs every
// workload at a tiny size and checks the benchmark itself.
//
// run.sh builds this binary and egs-serve from source and passes -root,
// -out and -serve-bin; see README.md for the metrics and workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// options are the command-line settings shared by every workload.
type options struct {
	root, out, serveBin string
	seed                uint64
	seconds             float64
	// quick shrinks every workload to a tiny size; only the self-check
	// sets it.
	quick bool
}

// workload is one benchmark workload: a generator that builds the
// inputs from the seed before any timer starts.
type workload struct {
	name string
	// tailPct is the percentile reported as latency_tail_ms; minSamples
	// is the sample count a phase collects at least and a tail block
	// holds at least, so that ten samples or more lie beyond it.
	tailPct    float64
	minSamples int
	// wall times tasks with the wall clock; otherwise tasks are timed
	// with processCPU (the in-process workloads).
	wall bool
	gen  func(o options) (bench, error)
}

// bench is a workload with its inputs generated.
type bench interface {
	// digest is a hex digest of every generated input, in use order.
	digest() string
	// measure runs whole passes over the inputs until budget has
	// elapsed and at least minSamples tasks completed. A non-nil tracer
	// records spans and enables the per-layer attribution.
	measure(budget time.Duration, minSamples int, tr *tracer) (*phase, error)
}

var workloads = []workload{
	{name: "paper-suite", tailPct: 99, minSamples: 1000, gen: genPaperSuite},
	{name: "family-large", tailPct: 95, minSamples: 200, gen: genFamilyLarge},
	{name: "session-revise", tailPct: 99, minSamples: 1000, gen: genSessionRevise},
	{name: "serve-mixed", tailPct: 99, minSamples: 1000, wall: true, gen: genServeMixed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var o options
	name := flag.String("workload", "", "workload name")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics from a traced run")
	selfcheck := flag.Bool("selfcheck", false, "run every workload at a tiny size and check the benchmark itself")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement time")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for span files and reports")
	flag.StringVar(&o.serveBin, "serve-bin", "", "egs-serve binary for serve-mixed")
	flag.Parse()

	if *selfcheck {
		if err := runSelfcheck(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: selfcheck:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench: selfcheck ok")
		return
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload %s -seed n -seconds s -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, rep, err := runWorkload(o, w, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeReport(o, w.name, *trace == 1, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	repLine, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(repLine))
	fmt.Println(string(resLine))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line printed before the result: host and input
// fingerprint, sample counts, exact counts and workload facts.
type report struct {
	Workload    string           `json:"workload"`
	Trace       bool             `json:"trace"`
	Host        fingerprint      `json:"host"`
	Seed        uint64           `json:"seed"`
	InputDigest string           `json:"input_digest"`
	TailPct     float64          `json:"tail_percentile"`
	Samples     int              `json:"latency_samples"`
	TailBlocks  int              `json:"tail_blocks"`
	Beyond      int              `json:"samples_beyond_tail_per_block"`
	Passes      int              `json:"passes"`
	Exact       map[string]int64 `json:"exact_counts"`
	Failures    []string         `json:"failures,omitempty"`
	Info        map[string]any   `json:"info,omitempty"`
	SpanFile    string           `json:"span_file,omitempty"`
	Spans       int              `json:"spans,omitempty"`
}

// runWorkload generates the inputs, measures, and assembles the result
// and the report. A traced run measures untraced first, then traced,
// each for half the time, so it can report the tracing overhead.
func runWorkload(o options, w workload, traced bool) (result, report, error) {
	b, err := w.gen(o)
	if err != nil {
		return result{}, report{}, fmt.Errorf("%s: generating inputs: %w", w.name, err)
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	var phases []*phase
	var tr *tracer
	if traced {
		plain, err := b.measure(budget/2, w.minSamples, nil)
		if err != nil {
			return result{}, report{}, fmt.Errorf("%s: %w", w.name, err)
		}
		clk := clock(processCPU)
		if w.wall {
			clk = wallClock()
		}
		tr = newTracer(clk)
		withSpans, err := b.measure(budget/2, w.minSamples, tr)
		if err != nil {
			return result{}, report{}, fmt.Errorf("%s: traced: %w", w.name, err)
		}
		phases = []*phase{plain, withSpans}
	} else {
		ph, err := b.measure(budget, w.minSamples, nil)
		if err != nil {
			return result{}, report{}, fmt.Errorf("%s: %w", w.name, err)
		}
		phases = []*phase{ph}
	}
	last := phases[len(phases)-1]

	res := result{Metrics: map[string]metric{}}
	var failures []string
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.attempted - ph.correct
		failures = append(failures, ph.failures...)
	}
	// Tracing must not change any count the program makes.
	if len(phases) == 2 {
		failures = append(failures, diffExact("untraced vs traced", phases[0].exact, phases[1].exact)...)
	}
	res.Correct = res.Failed == 0 && len(failures) == 0 && res.Attempted > 0

	if traced {
		for _, m := range layerMetrics {
			res.Metrics[m.name] = metric{Value: last.layer[m.name], Unit: m.unit}
		}
		plain, spans := phases[0].tasksPerSec(), last.tasksPerSec()
		res.Metrics["bench.trace_overhead_pct"] = metric{Value: 100 * (plain - spans) / plain, Unit: "%"}
	} else {
		res.Metrics = endToEnd(last, w)
	}
	_, blocks, smallest := last.tail(w.tailPct, w.minSamples)

	rep := report{
		Workload:    w.name,
		Trace:       traced,
		Host:        hostFingerprint(),
		Seed:        o.seed,
		InputDigest: b.digest(),
		TailPct:     w.tailPct,
		Samples:     len(last.latMS),
		TailBlocks:  blocks,
		Beyond:      beyond(smallest, w.tailPct),
		Passes:      last.passes,
		Exact:       last.exact,
		Failures:    failures,
		Info:        last.info,
	}
	if len(last.wallRates) > 0 {
		rep.Info["wall_tasks_per_s"] = median(last.wallRates)
	}
	if tr != nil {
		path := filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		if err := tr.write(path); err != nil {
			return result{}, report{}, err
		}
		rep.SpanFile, rep.Spans = path, len(tr.spans)
	}
	return res, rep, nil
}

// endToEnd computes the eight end-to-end metrics of an untraced phase.
func endToEnd(ph *phase, w workload) map[string]metric {
	tailMS, _, _ := ph.tail(w.tailPct, w.minSamples)
	correctPct := 0.0
	if ph.attempted > 0 {
		correctPct = 100 * float64(ph.correct) / float64(ph.attempted)
	}
	return map[string]metric{
		"setup_s":          {Value: median(ph.setups), Unit: "s"},
		"tasks_per_s":      {Value: ph.tasksPerSec(), Unit: "1/s"},
		"latency_p50_ms":   {Value: percentile(ph.latMS, 50), Unit: "ms"},
		"latency_tail_ms":  {Value: tailMS, Unit: "ms"},
		"correct_pct":      {Value: correctPct, Unit: "%"},
		"program_literals": {Value: float64(ph.exact["program_literals"]), Unit: "count"},
		"peak_rss_mb":      {Value: ph.peakRSSMB, Unit: "MB"},
		"retained_heap_mb": {Value: ph.retainedMB, Unit: "MB"},
	}
}

// layerMetrics are the per-layer metrics every traced run reports, in
// BENCHMARK.json order. A layer the workload does not enter reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"task.parse_ms", "ms"},
	{"task.facts_per_s", "1/s"},
	{"relation.tuple_ids", "count"},
	{"relation.ids_added_by_solve", "count"},
	{"egs.synth_ms", "ms"},
	{"egs.contexts_popped", "count"},
	{"egs.rule_evals", "count"},
	{"egs.memo_hits", "count"},
	{"egs.memo_hit_ratio", "ratio"},
	{"egs.max_queue", "count"},
	{"eval.replay_auto_us", "us"},
	{"eval.replay_backtrack_us", "us"},
	{"eval.replay_batch_us", "us"},
	{"query.render_us", "us"},
	{"sqlgen.render_us", "us"},
	{"session.delta_us.fact", "us"},
	{"session.delta_us.example", "us"},
	{"session.solve_ms.fact", "ms"},
	{"session.solve_ms.example", "ms"},
	{"session.rule_evals_per_revision.fact", "count"},
	{"session.rule_evals_per_revision.example", "count"},
	{"session.memo_hits_per_revision.fact", "count"},
	{"session.memo_hits_per_revision.example", "count"},
	{"server.queue_wait_ms", "ms"},
	{"server.solve_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.singleflight_shared", "count"},
	{"server.snapshot_hit_ratio", "ratio"},
	{"server.snapshot_fallbacks", "count"},
	{"server.syntheses", "count"},
	{"server.rejected", "count"},
	{"bench.trace_overhead_pct", "%"},
}

func writeReport(o options, name string, traced bool, rep report) error {
	path := filepath.Join(o.out, "reports", fmt.Sprintf("%s-seed%d-trace%d.json", name, o.seed, b2i(traced)))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
