package query

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"github.com/egs-synthesis/egs/internal/relation"
)

// oracleCanonicalKey is the clone-based canonical key that Canon
// replaced, kept verbatim in behaviour as the reference: clone the
// rule, rename by first occurrence, then sort the body stably and
// rename again until the rendered key stops changing (at most
// NumVars+1 rounds).
func oracleCanonicalKey(r Rule) string {
	cur := r.Clone()
	ren := make([]Var, r.NumVars())
	oracleRename(&cur, ren)
	key := oracleAppendRuleKey(make([]byte, 0, 96), cur)
	var alt []byte
	for i := 0; i < len(ren)+1; i++ {
		sort.SliceStable(cur.Body, func(i, j int) bool {
			return oracleCompareLit(cur.Body[i], cur.Body[j]) < 0
		})
		oracleRename(&cur, ren)
		alt = oracleAppendRuleKey(alt[:0], cur)
		if string(alt) == string(key) {
			break
		}
		key, alt = alt, key
	}
	return string(key)
}

func oracleRename(cur *Rule, ren []Var) {
	for i := range ren {
		ren[i] = -1
	}
	next := Var(0)
	visit := func(l Literal) {
		for i, t := range l.Args {
			if t.IsConst {
				continue
			}
			v := ren[t.Var]
			if v < 0 {
				v = next
				next++
				ren[t.Var] = v
			}
			l.Args[i].Var = v
		}
	}
	visit(cur.Head)
	for _, l := range cur.Body {
		visit(l)
	}
}

func oracleCompareLit(a, b Literal) int {
	if a.Rel != b.Rel {
		if a.Rel < b.Rel {
			return -1
		}
		return 1
	}
	if len(a.Args) != len(b.Args) {
		if len(a.Args) < len(b.Args) {
			return -1
		}
		return 1
	}
	for i := range a.Args {
		ta, tb := a.Args[i], b.Args[i]
		if ta.IsConst != tb.IsConst {
			if tb.IsConst {
				return -1
			}
			return 1
		}
		if ta.IsConst {
			if ta.Const != tb.Const {
				if ta.Const < tb.Const {
					return -1
				}
				return 1
			}
		} else if ta.Var != tb.Var {
			if ta.Var < tb.Var {
				return -1
			}
			return 1
		}
	}
	return 0
}

func oracleAppendRuleKey(b []byte, r Rule) []byte {
	b = oracleAppendLitKey(b, r.Head)
	b = append(b, ':', '-')
	for _, l := range r.Body {
		b = oracleAppendLitKey(b, l)
	}
	return b
}

func oracleAppendLitKey(b []byte, l Literal) []byte {
	b = strconv.AppendInt(b, int64(l.Rel), 10)
	b = append(b, '(')
	for _, t := range l.Args {
		if t.IsConst {
			b = append(b, 'c')
			b = strconv.AppendInt(b, int64(t.Const), 10)
		} else {
			b = append(b, 'v')
			b = strconv.AppendInt(b, int64(t.Var), 10)
		}
		b = append(b, ',')
	}
	return append(b, ')')
}

// wildRule builds a random rule over four relations of mixed arity
// with everything the synthesizer's rules never contain: constants,
// sparse variable numbers, repeated variables within a literal,
// duplicate literals, empty bodies, and unsafe heads.
func wildRule(rng *rand.Rand) Rule {
	arities := []int{0, 1, 2, 3}
	nVars := 1 + rng.Intn(6)
	stride := Var(1 + rng.Intn(3)) // sparse variable numbering
	term := func() Term {
		if rng.Intn(5) == 0 {
			return C(relation.Const(rng.Intn(4)))
		}
		return V(Var(rng.Intn(nVars)) * stride)
	}
	lit := func(rel relation.RelID) Literal {
		l := Literal{Rel: rel, Args: make([]Term, arities[int(rel)%len(arities)])}
		for j := range l.Args {
			l.Args[j] = term()
		}
		return l
	}
	r := Rule{Head: lit(relation.RelID(rng.Intn(4)))}
	for i, n := 0, rng.Intn(7); i < n; i++ {
		if i > 0 && rng.Intn(6) == 0 {
			r.Body = append(r.Body, r.Body[rng.Intn(i)].Clone2())
			continue
		}
		r.Body = append(r.Body, lit(relation.RelID(rng.Intn(4))))
	}
	return r
}

// TestCanonicalKeyMatchesOracle: the flat canonicalizer renders
// exactly the clone-based fixpoint's key, on wild random rules and on
// alpha-variants of safe ones.
func TestCanonicalKeyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20000; trial++ {
		r := wildRule(rng)
		if trial%2 == 1 {
			r = shuffleRename(rng, randomRule(rng))
		}
		if got, want := r.CanonicalKey(), oracleCanonicalKey(r); got != want {
			t.Fatalf("trial %d: CanonicalKey = %q, oracle %q\nrule: %+v", trial, got, want, r)
		}
	}
}

// TestCanonImageMatchesKey: on one reused Canon, byte images are
// equal exactly when the text keys are, and the text rendered from
// the canonical form is CanonicalKey's.
func TestCanonImageMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var c Canon
	byImage := map[string]string{}
	byKey := map[string]string{}
	for trial := 0; trial < 20000; trial++ {
		r := wildRule(rng)
		c.Load(r)
		img := string(c.Canonicalize())
		key := string(c.AppendKey(nil))
		if want := oracleCanonicalKey(r); key != want {
			t.Fatalf("trial %d: reused Canon key %q, oracle %q", trial, key, want)
		}
		if k, ok := byImage[img]; ok && k != key {
			t.Fatalf("image %x names keys %q and %q", img, k, key)
		}
		if i, ok := byKey[key]; ok && i != img {
			t.Fatalf("key %q has images %x and %x", key, i, img)
		}
		byImage[img], byKey[key] = key, img
	}
	if len(byImage) < 1000 {
		t.Errorf("only %d distinct rules generated", len(byImage))
	}
}

// TestCanonReuseDoesNotAllocate: once its buffers have grown, a Canon
// loads and canonicalizes a rule without allocating.
func TestCanonReuseDoesNotAllocate(t *testing.T) {
	r := Rule{
		Head: Literal{Rel: 3, Args: []Term{V(2), V(0)}},
		Body: []Literal{
			{Rel: 1, Args: []Term{V(0), V(1)}},
			{Rel: 0, Args: []Term{V(2)}},
			{Rel: 1, Args: []Term{V(1), V(2)}},
		},
	}
	var c Canon
	c.Load(r)
	c.Canonicalize()
	if n := testing.AllocsPerRun(100, func() {
		c.Load(r)
		c.Canonicalize()
	}); n != 0 {
		t.Errorf("Canon.Canonicalize allocates %.1f times per rule", n)
	}
}
