package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// runSelfcheck runs every workload named in BENCHMARK.json at a tiny
// size: twice untraced with one seed, then once traced. It checks that
// each run is correct and emits exactly the metrics BENCHMARK.json
// names, with their units, and that the two untraced runs generated
// byte-identical inputs and made identical exact counts.
func runSelfcheck(o options) error {
	data, err := os.ReadFile(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	o.quick, o.seconds, o.seed = true, 0.2, 7
	for _, nw := range spec.Workloads {
		w, ok := findWorkload(nw.Name)
		if !ok {
			return fmt.Errorf("BENCHMARK.json names unknown workload %q", nw.Name)
		}
		w.minSamples = 0
		var runs []report
		for i := 0; i < 3; i++ {
			traced := i == 2
			res, rep, err := runWorkload(o, w, traced)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: run %d not correct: %v", w.name, i+1, rep.Failures)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if err := sameMetrics(res.Metrics, want); err != nil {
				return fmt.Errorf("%s (trace %d): %w", w.name, b2i(traced), err)
			}
			runs = append(runs, rep)
		}
		if runs[0].InputDigest != runs[1].InputDigest {
			return fmt.Errorf("%s: same seed, different input digests", w.name)
		}
		if d := diffExact("run 1 vs run 2", runs[0].Exact, runs[1].Exact); len(d) > 0 {
			return fmt.Errorf("%s: %v", w.name, d)
		}
		fmt.Printf("selfcheck %s: ok (digest %.12s, %d exact counts)\n", w.name, runs[0].InputDigest, len(runs[0].Exact))
	}
	return nil
}

// named is a metric or workload entry of BENCHMARK.json.
type named struct{ Name, Unit string }

// sameMetrics checks that got holds exactly the named metrics, each
// with its unit.
func sameMetrics(got map[string]metric, want []named) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, n := range want {
		m, ok := got[n.Name]
		if !ok {
			return fmt.Errorf("metric %s not emitted", n.Name)
		}
		if m.Unit != n.Unit {
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", n.Name, m.Unit, n.Unit)
		}
	}
	return nil
}
