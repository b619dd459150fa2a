// Package query defines the abstract syntax of the relational query
// fragment targeted by the synthesizer: conjunctive queries (Horn
// clauses / select-project-join queries) and unions of conjunctive
// queries (UCQs), per Section 3 of the EGS paper (PLDI 2021).
//
// Negation is represented at the relation level: the task
// preprocessing stage (package task) materializes complement relations
// such as not_edge and the built-in inequality relation neq, so rules
// in negation normal form contain only positive literals over an
// extended input schema, exactly as in Section 5.3 of the paper.
package query

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/egs-synthesis/egs/internal/relation"
)

// Var identifies a query variable. Within one rule, variables are
// dense: 0..NumVars-1.
type Var int32

// Term is either a variable or a constant. Synthesized rules contain
// no constants (the paper's programs are constant-free; distinguished
// constants are encoded as singleton input relations), but the
// evaluator supports both so that hand-written queries and test
// oracles can use constants directly.
type Term struct {
	IsConst bool
	Var     Var
	Const   relation.Const
}

// V returns a variable term.
func V(v Var) Term { return Term{Var: v} }

// C returns a constant term.
func C(c relation.Const) Term { return Term{IsConst: true, Const: c} }

// Literal is an atom R(t1, ..., tk) occurring in a rule head or body.
type Literal struct {
	Rel  relation.RelID
	Args []Term
}

// Rule is a Horn clause: Head :- Body[0], ..., Body[n-1].
type Rule struct {
	Head Literal
	Body []Literal
}

// UCQ is a union of conjunctive queries: a set of rules, all with
// heads over output relations.
type UCQ struct {
	Rules []Rule
}

// NumVars returns one more than the largest variable index used by
// the rule, i.e. the size of its variable universe.
func (r Rule) NumVars() int {
	max := Var(-1)
	scan := func(l Literal) {
		for _, t := range l.Args {
			if !t.IsConst && t.Var > max {
				max = t.Var
			}
		}
	}
	scan(r.Head)
	for _, l := range r.Body {
		scan(l)
	}
	return int(max) + 1
}

// Size returns the number of body literals (the paper's measure of
// rule size, "joins + 1").
func (r Rule) Size() int { return len(r.Body) }

// Size returns the total number of body literals across all rules.
func (q UCQ) Size() int {
	n := 0
	for _, r := range q.Rules {
		n += r.Size()
	}
	return n
}

// Safe reports whether the rule satisfies the range-restriction
// convention of Section 3.1: every variable appearing in the head also
// appears in the body. It returns a descriptive error otherwise.
func (r Rule) Safe() error {
	inBody := make(map[Var]bool)
	for _, l := range r.Body {
		for _, t := range l.Args {
			if !t.IsConst {
				inBody[t.Var] = true
			}
		}
	}
	for i, t := range r.Head.Args {
		if !t.IsConst && !inBody[t.Var] {
			return fmt.Errorf("unsafe rule: head variable v%d (position %d) does not appear in the body", t.Var, i)
		}
	}
	return nil
}

// Validate checks the rule against a schema: relation ids must be
// declared, literal arities must match, the head must be an output
// relation, and body literals must be input relations.
func (r Rule) Validate(s *relation.Schema) error {
	check := func(l Literal, where string, wantKind relation.Kind) error {
		if int(l.Rel) < 0 || int(l.Rel) >= s.Size() {
			return fmt.Errorf("%s: undeclared relation id %d", where, l.Rel)
		}
		info := s.Info(l.Rel)
		if info.Arity != len(l.Args) {
			return fmt.Errorf("%s: relation %s has arity %d, literal has %d args",
				where, info.Name, info.Arity, len(l.Args))
		}
		if info.Kind != wantKind {
			return fmt.Errorf("%s: relation %s is %v, want %v", where, info.Name, info.Kind, wantKind)
		}
		return nil
	}
	if err := check(r.Head, "head", relation.Output); err != nil {
		return err
	}
	for i, l := range r.Body {
		if err := check(l, fmt.Sprintf("body literal %d", i), relation.Input); err != nil {
			return err
		}
	}
	return r.Safe()
}

// Validate checks every rule of the UCQ.
func (q UCQ) Validate(s *relation.Schema) error {
	for i, r := range q.Rules {
		if err := r.Validate(s); err != nil {
			return fmt.Errorf("rule %d: %w", i, err)
		}
	}
	return nil
}

// varName renders variable v as x, y, z, w, then v4, v5, ...
func varName(v Var) string {
	letters := []string{"x", "y", "z", "w"}
	if int(v) < len(letters) {
		return letters[v]
	}
	return fmt.Sprintf("v%d", v)
}

// String renders the literal in Datalog syntax using schema and
// domain names.
func (l Literal) String(s *relation.Schema, d *relation.Domain) string {
	var b strings.Builder
	b.WriteString(s.Name(l.Rel))
	b.WriteByte('(')
	for i, t := range l.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		if t.IsConst {
			b.WriteString(d.Name(t.Const))
		} else {
			b.WriteString(varName(t.Var))
		}
	}
	b.WriteByte(')')
	return b.String()
}

// String renders the rule in Datalog syntax, e.g.
// "Crashes(x) :- Intersects(x, y), HasTraffic(x).".
func (r Rule) String(s *relation.Schema, d *relation.Domain) string {
	var b strings.Builder
	b.WriteString(r.Head.String(s, d))
	if len(r.Body) > 0 {
		b.WriteString(" :- ")
		for i, l := range r.Body {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(l.String(s, d))
		}
	}
	b.WriteByte('.')
	return b.String()
}

// String renders the UCQ one rule per line.
func (q UCQ) String(s *relation.Schema, d *relation.Domain) string {
	lines := make([]string, len(q.Rules))
	for i, r := range q.Rules {
		lines[i] = r.String(s, d)
	}
	return strings.Join(lines, "\n")
}

// Clone returns a deep copy of the rule.
func (r Rule) Clone() Rule {
	out := Rule{Head: cloneLit(r.Head), Body: make([]Literal, len(r.Body))}
	for i, l := range r.Body {
		out.Body[i] = cloneLit(l)
	}
	return out
}

func cloneLit(l Literal) Literal {
	return Literal{Rel: l.Rel, Args: append([]Term(nil), l.Args...)}
}

// Rename applies a variable substitution to the rule, returning a new
// rule. Variables absent from the map are left unchanged.
func (r Rule) Rename(m map[Var]Var) Rule {
	out := r.Clone()
	apply := func(l Literal) {
		for i, t := range l.Args {
			if !t.IsConst {
				if nv, ok := m[t.Var]; ok {
					l.Args[i] = V(nv)
				}
			}
		}
	}
	apply(out.Head)
	for _, l := range out.Body {
		apply(l)
	}
	return out
}

// compareAtoms is the canonical literal order: by relation id, then
// arity, then argument terms, with every variable before every
// constant.
func compareAtoms(ra relation.RelID, aa []Term, rb relation.RelID, ab []Term) int {
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	if len(aa) != len(ab) {
		if len(aa) < len(ab) {
			return -1
		}
		return 1
	}
	for i := range aa {
		ta, tb := aa[i], ab[i]
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

// Canonicalize renames variables to 0,1,2,... in order of first
// occurrence (head first, then body in current order) and returns the
// renamed rule. Combined with a fixed body order this yields a
// canonical form usable as a dedup key in rule enumerators.
func (r Rule) Canonicalize() Rule {
	m := make(map[Var]Var)
	next := Var(0)
	visit := func(l Literal) {
		for _, t := range l.Args {
			if !t.IsConst {
				if _, ok := m[t.Var]; !ok {
					m[t.Var] = next
					next++
				}
			}
		}
	}
	visit(r.Head)
	for _, l := range r.Body {
		visit(l)
	}
	return r.Rename(m)
}

// CanonicalKey returns a key that is invariant under body reordering
// and under most variable renamings: it greedily sorts the body under
// the current naming, renames by first occurrence, and iterates to a
// fixed point. Equal keys imply alpha-equivalent rules; the converse
// can fail for rules with non-trivial automorphism-like symmetry
// (exact canonization is as hard as graph canonization), so
// CanonicalKey is a sound, slightly conservative deduplication key:
// a duplicate that survives costs a redundant evaluation, never a
// lost rule. Use EquivalentTo for exact alpha-equivalence.
//
// The fixpoint is Canon's; CanonicalKey renders its result as text.
// Hot paths hold a Canon and use its byte image instead.
func (r Rule) CanonicalKey() string {
	var c Canon
	c.Load(r)
	c.Canonicalize()
	return string(c.AppendKey(make([]byte, 0, 96)))
}

// Canon is reusable scratch holding one rule in flat form: literal
// headers over a shared term buffer, so canonicalization permutes
// headers and rewrites terms in place. Fill it with Load, or with
// Reset, AddBody and SetHead; then Canonicalize. The zero value is
// ready to use, and a Canon reused across rules canonicalizes without
// allocating once its buffers have grown. A Canon is not safe for
// concurrent use.
type Canon struct {
	terms    []Term
	head     flatLit
	body     []flatLit
	ren      []Var
	img, alt []byte
}

// flatLit is a literal whose arguments are terms[off : off+n].
type flatLit struct {
	rel    relation.RelID
	off, n int32
}

// Reset empties the scratch for a new rule with an empty head.
func (c *Canon) Reset() {
	c.terms, c.body, c.head = c.terms[:0], c.body[:0], flatLit{}
}

// Load replaces the scratch contents with a copy of r.
func (c *Canon) Load(r Rule) {
	c.Reset()
	copy(c.SetHead(r.Head.Rel, len(r.Head.Args)), r.Head.Args)
	for _, l := range r.Body {
		copy(c.AddBody(l.Rel, len(l.Args)), l.Args)
	}
}

// AddBody appends a body literal over rel with n arguments and returns
// them for the caller to fill. The slice is valid until the next
// AddBody or SetHead.
func (c *Canon) AddBody(rel relation.RelID, n int) []Term {
	c.body = append(c.body, flatLit{rel: rel, off: int32(len(c.terms)), n: int32(n)})
	return c.addTerms(n)
}

// SetHead sets the head literal to rel with n arguments and returns
// them for the caller to fill, as AddBody does.
func (c *Canon) SetHead(rel relation.RelID, n int) []Term {
	c.head = flatLit{rel: rel, off: int32(len(c.terms)), n: int32(n)}
	return c.addTerms(n)
}

func (c *Canon) addTerms(n int) []Term {
	off := len(c.terms)
	c.terms = slices.Grow(c.terms, n)[:off+n]
	return c.terms[off : off+n : off+n]
}

func (c *Canon) args(l flatLit) []Term { return c.terms[l.off : l.off+l.n] }

func (c *Canon) compare(a, b flatLit) int {
	return compareAtoms(a.rel, c.args(a), b.rel, c.args(b))
}

// Canonicalize brings the rule to the canonical form CanonicalKey
// describes and returns its byte image: for the head and then every
// body literal, the relation id, the arity, and each term (a variable
// v as 2v, a constant c as 2c+1), all as uvarints. The image is
// self-delimiting, and two rules have equal images exactly when they
// have equal CanonicalKeys. It is valid until the next Canonicalize.
//
// The fixpoint renames variables by first occurrence (head first),
// then repeatedly sorts the body stably in canonical literal order and
// renames again, until the image stops changing or NumVars+1 rounds
// have run. A round that finds the body already sorted ends the
// fixpoint without rendering: its sort and its renaming would both be
// identities, so the image could not change.
func (c *Canon) Canonicalize() []byte {
	nv := c.numVars()
	c.ren = slices.Grow(c.ren[:0], nv)[:nv]
	c.rename()
	rendered := false // c.img holds the current form's image
	for round := 0; round < nv+1; round++ {
		if slices.IsSortedFunc(c.body, c.compare) {
			break
		}
		if !rendered {
			c.img = c.appendImage(c.img[:0])
		}
		slices.SortStableFunc(c.body, c.compare)
		c.rename()
		c.alt = c.appendImage(c.alt[:0])
		c.img, c.alt = c.alt, c.img
		rendered = true
		if bytes.Equal(c.img, c.alt) {
			break
		}
	}
	if !rendered {
		c.img = c.appendImage(c.img[:0])
	}
	return c.img
}

// numVars is Rule.NumVars over the flat form.
func (c *Canon) numVars() int {
	max := Var(-1)
	for _, t := range c.terms {
		if !t.IsConst && t.Var > max {
			max = t.Var
		}
	}
	return int(max) + 1
}

// rename renames variables to 0,1,2,... in order of first occurrence,
// head first and then the body in its current order.
func (c *Canon) rename() {
	for i := range c.ren {
		c.ren[i] = -1
	}
	next := Var(0)
	visit := func(l flatLit) {
		args := c.args(l)
		for i, t := range args {
			if t.IsConst {
				continue
			}
			v := c.ren[t.Var]
			if v < 0 {
				v = next
				next++
				c.ren[t.Var] = v
			}
			args[i].Var = v
		}
	}
	visit(c.head)
	for _, l := range c.body {
		visit(l)
	}
}

func (c *Canon) appendImage(b []byte) []byte {
	b = c.appendLitImage(b, c.head)
	for _, l := range c.body {
		b = c.appendLitImage(b, l)
	}
	return b
}

func (c *Canon) appendLitImage(b []byte, l flatLit) []byte {
	b = binary.AppendUvarint(b, uint64(uint32(l.rel)))
	b = binary.AppendUvarint(b, uint64(l.n))
	for _, t := range c.args(l) {
		if t.IsConst {
			b = binary.AppendUvarint(b, uint64(uint32(t.Const))<<1|1)
		} else {
			b = binary.AppendUvarint(b, uint64(uint32(t.Var))<<1)
		}
	}
	return b
}

// AppendKey appends the rule's text key — the CanonicalKey string once
// Canonicalize has run — to b.
func (c *Canon) AppendKey(b []byte) []byte {
	b = c.appendLitKey(b, c.head)
	b = append(b, ':', '-')
	for _, l := range c.body {
		b = c.appendLitKey(b, l)
	}
	return b
}

func (c *Canon) appendLitKey(b []byte, l flatLit) []byte {
	b = strconv.AppendInt(b, int64(l.rel), 10)
	b = append(b, '(')
	for _, t := range c.args(l) {
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

// EquivalentTo reports exact alpha-equivalence: whether some
// variable bijection and body permutation turns r into other. It
// backtracks over literal correspondences; rules here are small
// (bodies of at most a dozen literals), so the worst case is never
// approached in practice.
func (r Rule) EquivalentTo(other Rule) bool {
	if r.Head.Rel != other.Head.Rel || len(r.Head.Args) != len(other.Head.Args) ||
		len(r.Body) != len(other.Body) {
		return false
	}
	fwd := make(map[Var]Var)
	bwd := make(map[Var]Var)
	var matchLit func(a, b Literal) ([][2]Var, bool)
	matchLit = func(a, b Literal) ([][2]Var, bool) {
		if a.Rel != b.Rel || len(a.Args) != len(b.Args) {
			return nil, false
		}
		var added [][2]Var
		undo := func() {
			for _, p := range added {
				delete(fwd, p[0])
				delete(bwd, p[1])
			}
		}
		for i := range a.Args {
			ta, tb := a.Args[i], b.Args[i]
			if ta.IsConst != tb.IsConst {
				undo()
				return nil, false
			}
			if ta.IsConst {
				if ta.Const != tb.Const {
					undo()
					return nil, false
				}
				continue
			}
			fa, okA := fwd[ta.Var]
			fb, okB := bwd[tb.Var]
			switch {
			case okA && fa != tb.Var, okB && fb != ta.Var:
				undo()
				return nil, false
			case !okA && !okB:
				fwd[ta.Var] = tb.Var
				bwd[tb.Var] = ta.Var
				added = append(added, [2]Var{ta.Var, tb.Var})
			case okA != okB:
				undo()
				return nil, false
			}
		}
		return added, true
	}
	headAdded, ok := matchLit(r.Head, other.Head)
	if !ok {
		return false
	}
	used := make([]bool, len(other.Body))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(r.Body) {
			return true
		}
		for j := range other.Body {
			if used[j] {
				continue
			}
			added, ok := matchLit(r.Body[i], other.Body[j])
			if !ok {
				continue
			}
			used[j] = true
			if rec(i + 1) {
				return true
			}
			used[j] = false
			for _, p := range added {
				delete(fwd, p[0])
				delete(bwd, p[1])
			}
		}
		return false
	}
	if rec(0) {
		return true
	}
	for _, p := range headAdded {
		delete(fwd, p[0])
		delete(bwd, p[1])
	}
	return false
}
