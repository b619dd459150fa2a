package family

import (
	"sort"
	"strings"
	"testing"

	"github.com/egs-synthesis/egs/internal/eval"
	"github.com/egs-synthesis/egs/internal/relation"
	"github.com/egs-synthesis/egs/internal/task"
)

// TestGenerateDeterministic proves the byte-determinism invariant:
// generating the same (spec, seed) twice yields identical bytes, and
// changing the seed changes them.
func TestGenerateDeterministic(t *testing.T) {
	for _, gp := range DefaultGrid() {
		a, err := Generate(gp.Spec, gp.Seed)
		if err != nil {
			t.Fatalf("Generate(%+v, %d): %v", gp.Spec, gp.Seed, err)
		}
		b, err := Generate(gp.Spec, gp.Seed)
		if err != nil {
			t.Fatalf("Generate(%+v, %d) second run: %v", gp.Spec, gp.Seed, err)
		}
		if a.Content != b.Content {
			t.Errorf("%s: two generations differ", a.Name)
		}
		c, err := Generate(gp.Spec, gp.Seed+1)
		if err != nil {
			t.Fatalf("Generate(%+v, %d): %v", gp.Spec, gp.Seed+1, err)
		}
		if a.Content == c.Content {
			t.Errorf("%s: seed %d and %d generated identical bytes", a.Name, gp.Seed, gp.Seed+1)
		}
	}
}

// positiveSet renders a task's positive examples as sorted atom
// strings, the same rendering Generate uses for labels.
func positiveSet(tk *task.Task) map[string]bool {
	set := make(map[string]bool, len(tk.Pos))
	for _, tup := range tk.Pos {
		set[tup.String(tk.Schema, tk.Domain)] = true
	}
	return set
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestGridConsistency is the consistency property test over the full
// default grid (5 classes x 3 scales): parse each generated task, run
// the intended program through both the reference evaluator and the
// forced batch strategy, and require the example labels to match the
// derived outputs exactly.
func TestGridConsistency(t *testing.T) {
	for _, gp := range DefaultGrid() {
		gp := gp
		inst, err := Generate(gp.Spec, gp.Seed)
		if err != nil {
			t.Fatalf("Generate(%+v, %d): %v", gp.Spec, gp.Seed, err)
		}
		t.Run(inst.Name, func(t *testing.T) {
			tk, err := task.Parse(strings.NewReader(inst.Content))
			if err != nil {
				t.Fatalf("generated instance does not parse: %v", err)
			}
			labels := positiveSet(tk)

			naive := make(map[string]bool)
			for _, rule := range tk.Intended().Rules {
				for _, tup := range eval.EvalRuleNaive(rule, tk.Input) {
					naive[tup.String(tk.Schema, tk.Domain)] = true
				}
			}
			batch := make(map[string]bool)
			restore := eval.ForceStrategy(eval.StrategyBatch)
			for _, rule := range tk.Intended().Rules {
				eval.RuleOutputIDs(rule, tk.Input).Iterate(func(id relation.TupleID) bool {
					batch[tk.Input.TupleByID(id).String(tk.Schema, tk.Domain)] = true
					return true
				})
			}
			restore()

			if got, want := sortedKeys(naive), sortedKeys(labels); !equalStrings(got, want) {
				t.Errorf("EvalRuleNaive outputs != labels:\n  eval: %v\n  task: %v", got, want)
			}
			if got, want := sortedKeys(batch), sortedKeys(labels); !equalStrings(got, want) {
				t.Errorf("batch-strategy outputs != labels:\n  eval: %v\n  task: %v", got, want)
			}
			if ok, why := tk.Example().Consistent(tk.Intended()); !ok {
				t.Errorf("intended program inconsistent with its own instance: %s", why)
			}
			if tk.Expect != task.ExpectSat {
				t.Errorf("noise-free instance should declare expect sat, got %v", tk.Expect)
			}
		})
	}
}

// TestNoisePerturbsOnlyDeclaredLabels pins the noise contract: the
// labels of a noisy instance differ from the intended program's
// outputs exactly at the atoms declared in Dropped and Added, and the
// facts themselves are untouched.
func TestNoisePerturbsOnlyDeclaredLabels(t *testing.T) {
	spec := Spec{Class: "chain", Domain: 12, Density: 1.5, Noise: 0.2}
	inst, err := Generate(spec, 3)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(inst.Dropped) == 0 && len(inst.Added) == 0 {
		t.Fatalf("noise 0.2 produced no label flips; pick a different seed for this test")
	}
	tk, err := task.Parse(strings.NewReader(inst.Content))
	if err != nil {
		t.Fatalf("noisy instance does not parse: %v", err)
	}
	if strings.Contains(inst.Content, "expect sat") {
		t.Errorf("noisy instance must not declare expect sat")
	}

	intended := make(map[string]bool)
	for _, rule := range tk.Intended().Rules {
		for _, tup := range eval.EvalRuleNaive(rule, tk.Input) {
			intended[tup.String(tk.Schema, tk.Domain)] = true
		}
	}
	want := make(map[string]bool)
	for atom := range intended {
		want[atom] = true
	}
	for _, atom := range inst.Dropped {
		if !intended[atom] {
			t.Errorf("Dropped atom %q is not an intended positive", atom)
		}
		delete(want, atom)
	}
	for _, atom := range inst.Added {
		if intended[atom] {
			t.Errorf("Added atom %q is already an intended positive", atom)
		}
		want[atom] = true
	}
	if got, wantKeys := sortedKeys(positiveSet(tk)), sortedKeys(want); !equalStrings(got, wantKeys) {
		t.Errorf("noisy labels != (intended \\ Dropped) + Added:\n  got:  %v\n  want: %v", got, wantKeys)
	}

	// The same spec without noise flips nothing and matches the
	// intended outputs exactly — noise changes labels, never facts.
	clean, err := Generate(Spec{Class: spec.Class, Domain: spec.Domain, Density: spec.Density}, 3)
	if err != nil {
		t.Fatalf("Generate clean: %v", err)
	}
	if len(clean.Dropped) != 0 || len(clean.Added) != 0 {
		t.Errorf("noise-free instance declared flips: dropped=%v added=%v", clean.Dropped, clean.Added)
	}
	factsOf := func(content string) string {
		// Facts are the unlabelled atom lines; labels start with '+'.
		var facts []string
		for _, line := range strings.Split(content, "\n") {
			if line != "" && !strings.HasPrefix(line, "+") && !strings.HasPrefix(line, "#") && strings.HasSuffix(line, ".") && !strings.Contains(line, " ") {
				facts = append(facts, line)
			}
		}
		return strings.Join(facts, "\n")
	}
	if factsOf(clean.Content) != factsOf(inst.Content) {
		t.Errorf("noise changed the fact stream; it must only flip labels")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Class: "chain", Domain: 32, Density: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Class: "nosuch", Domain: 32, Density: 2},
		{Class: "chain", Domain: 4, Density: 2},
		{Class: "chain", Domain: 4096, Density: 2},
		{Class: "chain", Domain: 32, Density: 0},
		{Class: "chain", Domain: 32, Density: 100},
		{Class: "chain", Domain: 32, Density: 2, Noise: 1},
		{Class: "chain", Domain: 32, Density: 2, Noise: -0.1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid spec", s)
		}
		if _, err := Generate(s, 1); err == nil {
			t.Errorf("Generate(%+v) accepted an invalid spec", s)
		}
	}
}

func TestSpecName(t *testing.T) {
	cases := []struct {
		spec Spec
		seed uint64
		want string
	}{
		{Spec{Class: "chain", Domain: 32, Density: 2}, 1, "fam-chain-d32-x2-s1"},
		{Spec{Class: "union", Domain: 12, Density: 1.5, Noise: 0.2}, 7, "fam-union-d12-x1p5-n0p2-s7"},
	}
	for _, c := range cases {
		if got := c.spec.Name(c.seed); got != c.want {
			t.Errorf("Name(%+v, %d) = %q, want %q", c.spec, c.seed, got, c.want)
		}
	}
}

func TestDefaultGridShape(t *testing.T) {
	grid := DefaultGrid()
	if want := len(Classes()) * len(DefaultScales()); len(grid) != want {
		t.Fatalf("DefaultGrid has %d points, want %d", len(grid), want)
	}
	seen := make(map[string]bool)
	for _, gp := range grid {
		name := gp.Spec.Name(gp.Seed)
		if seen[name] {
			t.Errorf("duplicate grid point %s", name)
		}
		seen[name] = true
		if err := gp.Spec.Validate(); err != nil {
			t.Errorf("grid point %s invalid: %v", name, err)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("intn(0) did not panic")
		}
	}()

	r := newRNG(42)
	// Same seed, same stream.
	r2 := newRNG(42)
	for i := 0; i < 100; i++ {
		if a, b := r.intn(97), r2.intn(97); a != b {
			t.Fatalf("draw %d: %d != %d with equal seeds", i, a, b)
		}
	}
	// Bounds hold and every residue is reachable for a bound that
	// does not divide 2^31 (the case modulo reduction would bias).
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		v := r.intn(3)
		if v < 0 || v >= 3 {
			t.Fatalf("intn(3) = %d out of range", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("intn(3) residue %d drawn %d/3000 times; want near-uniform", v, c)
		}
	}
	for i := 0; i < 100; i++ {
		if f := r.float(); f < 0 || f >= 1 {
			t.Fatalf("float() = %g out of [0, 1)", f)
		}
	}

	newRNG(1).intn(0) // must panic
}

func TestInstanceSeedSpreads(t *testing.T) {
	seen := make(map[uint64]string)
	for _, gp := range DefaultGrid() {
		for seed := uint64(1); seed <= 3; seed++ {
			s := instanceSeed(gp.Spec, seed)
			name := gp.Spec.Name(seed)
			if prev, dup := seen[s]; dup {
				t.Errorf("instanceSeed collision: %s and %s", prev, name)
			}
			seen[s] = name
		}
	}
}
