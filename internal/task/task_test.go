package task

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/egs-synthesis/egs/internal/parser"
	"github.com/egs-synthesis/egs/internal/relation"
)

const trafficTask = `
task traffic
domain knowledge-discovery
closed-world true
expect sat

input Intersects(2)
input GreenSignal(1)
input HasTraffic(1)
output Crashes(1)

Intersects(Broadway, LibertySt).
Intersects(Broadway, WallSt).
Intersects(Broadway, Whitehall).
Intersects(LibertySt, Broadway).
Intersects(LibertySt, WilliamSt).
Intersects(WallSt, Broadway).
Intersects(WallSt, WilliamSt).
Intersects(Whitehall, Broadway).
Intersects(WilliamSt, LibertySt).
Intersects(WilliamSt, WallSt).

GreenSignal(Broadway).
GreenSignal(LibertySt).
GreenSignal(WilliamSt).
GreenSignal(Whitehall).

HasTraffic(Broadway).
HasTraffic(WallSt).
HasTraffic(WilliamSt).
HasTraffic(Whitehall).

+Crashes(Broadway).
+Crashes(Whitehall).
`

func parseTask(t *testing.T, src string) *Task {
	t.Helper()
	tk, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

func TestParseTrafficTask(t *testing.T) {
	tk := parseTask(t, trafficTask)
	if tk.Name != "traffic" || tk.Category != "knowledge-discovery" {
		t.Errorf("metadata: %q %q", tk.Name, tk.Category)
	}
	if !tk.ClosedWorld || tk.Expect != ExpectSat {
		t.Error("flags not parsed")
	}
	if tk.RawInputCount != 18 {
		t.Errorf("RawInputCount = %d, want 18", tk.RawInputCount)
	}
	if tk.RawInputRels != 3 {
		t.Errorf("RawInputRels = %d, want 3", tk.RawInputRels)
	}
	if len(tk.Pos) != 2 || len(tk.Neg) != 0 {
		t.Errorf("examples: %d pos, %d neg", len(tk.Pos), len(tk.Neg))
	}
	ex := tk.Example()
	if ex.DomainSize != 5 {
		t.Errorf("DomainSize = %d, want 5", ex.DomainSize)
	}
}

func TestClosedWorldNegatives(t *testing.T) {
	tk := parseTask(t, trafficTask)
	ex := tk.Example()
	crashes, _ := tk.Schema.Lookup("Crashes")
	broadway, _ := tk.Domain.Lookup("Broadway")
	wallst, _ := tk.Domain.Lookup("WallSt")
	if ex.IsNegative(relation.NewTuple(crashes, broadway)) {
		t.Error("positive tuple reported negative")
	}
	if !ex.IsNegative(relation.NewTuple(crashes, wallst)) {
		t.Error("unlabelled tuple not negative under closed world")
	}
	// |F_1| = |D| - |O+| = 5 - 2 = 3.
	n, ok := ex.CountForbidden(crashes, 1, 1)
	if !ok || n != 3 {
		t.Errorf("CountForbidden = %d,%v want 3,true", n, ok)
	}
}

func TestConsistencyCheck(t *testing.T) {
	tk := parseTask(t, trafficTask)
	ex := tk.Example()
	good := parser.MustParseProgram(
		"Crashes(x) :- Intersects(x, y), HasTraffic(x), HasTraffic(y), GreenSignal(x), GreenSignal(y).",
		tk.Schema, tk.Domain)
	if ok, why := ex.Consistent(good); !ok {
		t.Errorf("paper's solution inconsistent: %s", why)
	}
	overGeneral := parser.MustParseProgram("Crashes(x) :- GreenSignal(x).", tk.Schema, tk.Domain)
	if ok, _ := ex.Consistent(overGeneral); ok {
		t.Error("over-general query reported consistent")
	}
	underGeneral := parser.MustParseProgram(
		"Crashes(x) :- Intersects(x, y), HasTraffic(x), HasTraffic(y), GreenSignal(x), GreenSignal(y), Intersects(y, x), HasTraffic(x).",
		tk.Schema, tk.Domain)
	// Still consistent: extra literals only specialize, and both
	// crash streets intersect each other.
	if ok, why := ex.Consistent(underGeneral); !ok {
		t.Errorf("specialized solution inconsistent: %s", why)
	}
}

const kinshipTask = `
task grandparent-mini
closed-world false
input father(2)
input mother(2)
output grandparent(2)
father(Mufasa, Simba).
mother(Sarabi, Simba).
father(Simba, Kiara).
mother(Nala, Kiara).
+grandparent(Sarabi, Kiara).
-grandparent(Sarabi, Simba).
`

func TestExplicitNegatives(t *testing.T) {
	tk := parseTask(t, kinshipTask)
	ex := tk.Example()
	gp, _ := tk.Schema.Lookup("grandparent")
	sarabi, _ := tk.Domain.Lookup("Sarabi")
	simba, _ := tk.Domain.Lookup("Simba")
	nala, _ := tk.Domain.Lookup("Nala")
	if !ex.IsNegative(relation.NewTuple(gp, sarabi, simba)) {
		t.Error("explicit negative not recognized")
	}
	if ex.IsNegative(relation.NewTuple(gp, nala, simba)) {
		t.Error("unlabelled tuple negative under explicit labelling")
	}
	// F_1 is empty: grandparent(Sarabi, *) has a non-negative
	// extension (the positive one), and |D|=6 extensions are not all
	// listed.
	kiara := relation.NewTuple(gp, sarabi, simba)
	if ex.ForbiddenSlice(kiara, 1) {
		t.Error("slice grandparent(Sarabi) wrongly forbidden")
	}
	n, ok := ex.CountForbidden(gp, 1, 2)
	if !ok || n != 0 {
		t.Errorf("CountForbidden = %d, want 0", n)
	}
}

func TestForbiddenSliceFullCoverage(t *testing.T) {
	// Two constants; all extensions of out(a, *) are negative.
	src := `
task tiny
closed-world false
input p(1)
output out(2)
p(a).
p(b).
-out(a, a).
-out(a, b).
+out(b, a).
`
	tk := parseTask(t, src)
	ex := tk.Example()
	out, _ := tk.Schema.Lookup("out")
	a, _ := tk.Domain.Lookup("a")
	b, _ := tk.Domain.Lookup("b")
	if !ex.ForbiddenSlice(relation.NewTuple(out, a, a), 1) {
		t.Error("fully covered slice not forbidden")
	}
	if ex.ForbiddenSlice(relation.NewTuple(out, b, a), 1) {
		t.Error("positive-prefix slice forbidden")
	}
	n, ok := ex.CountForbidden(out, 1, 2)
	if !ok || n != 1 {
		t.Errorf("CountForbidden = %d, want 1", n)
	}
}

func TestNegationMaterialization(t *testing.T) {
	src := `
task neg-test
closed-world true
negate edge
neq true
input edge(2)
output out(1)
edge(a, b).
edge(b, c).
+out(a).
`
	tk := parseTask(t, src)
	notEdge, ok := tk.Schema.Lookup("not_edge")
	if !ok {
		t.Fatal("not_edge not declared")
	}
	// D = {a, b, c}; 9 pairs, 2 edges -> 7 complements.
	if got := tk.Input.ExtentSize(notEdge); got != 7 {
		t.Errorf("not_edge extent = %d, want 7", got)
	}
	neq, ok := tk.Schema.Lookup("neq")
	if !ok {
		t.Fatal("neq not declared")
	}
	if got := tk.Input.ExtentSize(neq); got != 6 {
		t.Errorf("neq extent = %d, want 6", got)
	}
	// Raw count excludes materialized tuples.
	if tk.RawInputCount != 2 {
		t.Errorf("RawInputCount = %d, want 2", tk.RawInputCount)
	}
}

func TestParseModes(t *testing.T) {
	src := trafficTask + "\nmodes maxv=2 GreenSignal=2 HasTraffic=2 Intersects=1\n"
	tk := parseTask(t, src)
	if tk.Modes == nil {
		t.Fatal("modes not parsed")
	}
	if tk.Modes.MaxVars != 2 || tk.Modes.Occurrences["Intersects"] != 1 {
		t.Errorf("modes = %+v", tk.Modes)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"undeclared fact":     "input p(1)\nq(a).\n",
		"arity mismatch":      "input p(1)\np(a, b).\n",
		"unsigned output":     "input p(1)\noutput q(1)\np(a).\nq(a).\n",
		"signed input":        "input p(1)\noutput q(1)\n+p(a).\n",
		"pos and neg overlap": "input p(1)\noutput q(1)\np(a).\n+q(a).\n-q(a).\n",
		"closed world + neg":  "closed-world true\ninput p(1)\noutput q(1)\np(a).\n+q(a).\n-q(b).\n",
		"bad expect":          "expect maybe\n",
		"bad closed-world":    "closed-world yes\n",
		"bad feature":         "features recursion\n",
		"bad mode":            "modes maxv=zero\n",
		"mode without maxv":   "modes p=2\n",
		"negate undeclared":   "input p(1)\noutput q(1)\nnegate r\np(a).\n+q(a).\n",
		"bad decl":            "input p[2]\n",
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("%s: Parse succeeded, want error", name)
		}
	}
}

func TestDuplicateExamplesRejected(t *testing.T) {
	cases := map[string]struct {
		src, want string
	}{
		"duplicate positive": {
			src:  "input p(1)\noutput q(1)\np(a).\n+q(a).\n+q(a).\n",
			want: "duplicate positive example",
		},
		"duplicate negative": {
			src:  "input p(2)\noutput q(1)\np(a, b).\n+q(a).\n-q(b).\n-q(b).\n",
			want: "duplicate negative example",
		},
		"conflicting labels": {
			src:  "input p(1)\noutput q(1)\np(a).\n+q(a).\n-q(a).\n",
			want: "labelled both positive and negative",
		},
	}
	for name, c := range cases {
		_, err := Parse(strings.NewReader(c.src))
		if err == nil {
			t.Errorf("%s: Parse succeeded, want error", name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, c.want)
		}
	}
	// Duplicate input facts remain legal: the database is a set.
	if _, err := Parse(strings.NewReader("input p(1)\noutput q(1)\np(a).\np(a).\n+q(a).\n")); err != nil {
		t.Errorf("duplicate input fact rejected: %v", err)
	}
}

// TestForbiddenSliceMatchesBruteForce cross-checks the slice oracle
// against a direct materialization of Equation 7 on random explicit
// examples.
func TestForbiddenSliceMatchesBruteForce(t *testing.T) {
	checkSliceOracle(t, false, 3)
}

// TestForbiddenSliceMatchesBruteForceClosedWorld is the same cross-check
// under closed-world labelling, where every unlabelled tuple is negative.
func TestForbiddenSliceMatchesBruteForceClosedWorld(t *testing.T) {
	checkSliceOracle(t, true, 5)
}

func checkSliceOracle(t *testing.T, closed bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 200; trial++ {
		nConst := 2 + rng.Intn(3)
		k := 1 + rng.Intn(3)

		s := relation.NewSchema()
		d := relation.NewDomain()
		p := s.MustDeclare("p", 1, relation.Input)
		out := s.MustDeclare("out", k, relation.Output)
		tk := &Task{Schema: s, Domain: d, ClosedWorld: closed}
		tk.Input = relation.NewDatabase(s, d)
		consts := make([]relation.Const, nConst)
		for i := range consts {
			consts[i] = d.Intern(string(rune('a' + i)))
			tk.Input.Insert(relation.NewTuple(p, consts[i]))
		}
		// Random labelling of D^k; neg[j] labels all[j].
		var all [][]relation.Const
		var build func(prefix []relation.Const)
		build = func(prefix []relation.Const) {
			if len(prefix) == k {
				all = append(all, append([]relation.Const(nil), prefix...))
				return
			}
			for _, c := range consts {
				build(append(prefix, c))
			}
		}
		build(nil)
		neg := make([]bool, len(all))
		for j, args := range all {
			switch rng.Intn(3) {
			case 0:
				tk.Pos = append(tk.Pos, relation.Tuple{Rel: out, Args: args})
			case 1:
				neg[j] = true
				if !closed {
					tk.Neg = append(tk.Neg, relation.Tuple{Rel: out, Args: args})
				}
			default:
				neg[j] = closed
			}
		}
		if err := tk.Prepare(); err != nil {
			t.Fatal(err)
		}
		ex := tk.Example()
		for i := 1; i <= k; i++ {
			// Brute force F_i: slices whose every extension is negative.
			var prefixes [][]relation.Const
			for _, args := range all {
				if !slices.ContainsFunc(prefixes, func(q []relation.Const) bool { return slices.Equal(q, args[:i]) }) {
					prefixes = append(prefixes, args[:i])
				}
			}
			forbidden := 0
			for _, prefix := range prefixes {
				allNeg := true
				for j, args := range all {
					if slices.Equal(args[:i], prefix) && !neg[j] {
						allNeg = false
						break
					}
				}
				if allNeg {
					forbidden++
				}
				got := ex.ForbiddenSlice(relation.Tuple{Rel: out, Args: append(append([]relation.Const(nil), prefix...), make([]relation.Const, k-i)...)}, i)
				if got != allNeg {
					t.Fatalf("trial %d slice len %d: oracle=%v brute=%v", trial, i, got, allNeg)
				}
				if i < k && ex.ForbiddenPrefix(relation.Tuple{Rel: out, Args: prefix}) != allNeg {
					t.Fatalf("trial %d slice len %d: ForbiddenPrefix disagrees with brute force", trial, i)
				}
			}
			n, ok := ex.CountForbidden(out, i, k)
			if !ok || n != uint64(forbidden) {
				t.Fatalf("trial %d: CountForbidden(%d) = %d, want %d", trial, i, n, forbidden)
			}
		}
	}
}

func TestPowUint(t *testing.T) {
	if v, ok := powUint(10, 3); !ok || v != 1000 {
		t.Errorf("powUint(10,3) = %d,%v", v, ok)
	}
	if v, ok := powUint(7, 0); !ok || v != 1 {
		t.Errorf("powUint(7,0) = %d,%v", v, ok)
	}
	if _, ok := powUint(1<<32, 3); ok {
		t.Error("powUint overflow not detected")
	}
}

func TestOutputRelations(t *testing.T) {
	tk := parseTask(t, kinshipTask)
	rels := tk.OutputRelations()
	if len(rels) != 1 || tk.Schema.Name(rels[0]) != "grandparent" {
		t.Errorf("OutputRelations = %v", rels)
	}
}
