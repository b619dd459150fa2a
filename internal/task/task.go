// Package task defines synthesis tasks: an input database I, positive
// and negative output examples O+ and O-, and the metadata needed to
// drive the synthesizers and the benchmark harness.
//
// It implements the example semantics of Sections 3 and 5 of the EGS
// paper:
//
//   - the data domain D is the set of constants occurring in input
//     tuples (Section 3.2);
//   - negative examples are either explicit or implied by
//     closed-world (complete) labelling, O- = D^k \ O+ (Section 6.1);
//   - forbidden i-slices F_i (Equation 7) are decided without
//     materializing D^k;
//   - negation support materializes complement relations not_R and
//     the inequality relation neq as ordinary inputs (Section 5.3).
package task

import (
	"fmt"
	"sort"

	"github.com/egs-synthesis/egs/internal/eval"
	"github.com/egs-synthesis/egs/internal/parser"
	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/relation"
	"github.com/egs-synthesis/egs/internal/types"
)

// Expectation records the ground-truth outcome of a task.
type Expectation uint8

const (
	// ExpectUnknown means the task file did not declare an outcome.
	ExpectUnknown Expectation = iota
	// ExpectSat means a consistent query exists.
	ExpectSat
	// ExpectUnsat means the task is unrealizable.
	ExpectUnsat
)

func (e Expectation) String() string {
	switch e {
	case ExpectSat:
		return "sat"
	case ExpectUnsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// ModeSpec is a set of mode declarations in the sense of ILASP: an
// upper bound on distinct variables per rule, and per-relation
// occurrence bounds for body literals (Section 6.2).
type ModeSpec struct {
	MaxVars int
	// Occurrences maps an input relation name to the maximum number
	// of times it may occur in one rule body. Relations absent from
	// the map may not occur at all.
	Occurrences map[string]int
}

// Task is one synthesis benchmark.
type Task struct {
	Name     string
	Category string // knowledge-discovery | program-analysis | database-queries | unrealizable
	Expect   Expectation

	// ClosedWorld selects complete labelling: every undeclared output
	// tuple over D^k is negative.
	ClosedWorld bool
	// NegateRels lists input relations whose complements should be
	// materialized during Prepare (Section 5.3).
	NegateRels []string
	// AddNeq requests the built-in inequality relation (Section 5.3).
	AddNeq bool
	// TypedNegation materializes complements and neq over inferred
	// column types (package types) instead of the untyped domain D —
	// the typed-domains extension of Section 3.1. It changes nothing
	// unless NegateRels or AddNeq is set.
	TypedNegation bool
	// Features records whether the intended program needs
	// disjunction or negation (Table 1 metadata).
	FeatureDisj, FeatureNeg bool

	// Modes is the task-specific mode declaration for the ILASP and
	// ProSynth baselines (nil means none was provided).
	Modes *ModeSpec

	// IntendedSrc holds the source text of the task author's intended
	// program, one rule per entry (the "intended" directive). It is
	// parsed during Prepare; the result is available via Intended.
	// Used by the Section 6.4 program-quality comparison and by the
	// suite's data-sanity tests.
	IntendedSrc []string
	intended    query.UCQ

	Schema *relation.Schema
	Domain *relation.Domain

	// Input is the extensional database I. After Prepare it also
	// holds the materialized complement and neq tuples.
	Input *relation.Database
	// RawInputCount is the tuple count before Prepare (Table 1).
	RawInputCount int
	// RawInputRels is the input relation count before Prepare.
	RawInputRels int

	Pos []relation.Tuple // O+
	Neg []relation.Tuple // explicit O- (empty under closed world)

	prepared bool
	example  *Example
	// seenExamples indexes the labelled tuples seen during Parse so
	// duplicate example lines are rejected; see recordExample.
	seenExamples relation.Index
}

// Example is the oracle view of a task used by the synthesizers: it
// answers membership and counting queries about the (possibly
// implicit) negative example set and about forbidden slices.
//
// Full-arity example sets (O+ and the explicit O-) are TupleSets over
// the database's dense ids, so the membership tests in the
// synthesizers' inner loops are bitset probes. The distinct i-slices
// of O+ and O- (1 <= i <= k) get dense slice ids from one identity
// index, keyed by the tuple (Rel, Args[:i]).
type Example struct {
	DB          *relation.Database
	DomainSize  int // |D|: constants occurring in input tuples
	ClosedWorld bool

	Pos []relation.Tuple

	// posIDs is O+ as a bitset over DB's interned ids.
	posIDs *relation.TupleSet
	// negIDs is the explicit O- as a bitset (empty under closed
	// world).
	negIDs *relation.TupleSet

	// slices maps each i-slice of an example tuple to its slice id;
	// sliceKeys[id] is the slice (sharing the example tuple's args).
	slices    relation.Index
	sliceKeys []relation.Tuple
	// sliceForbidden[id] reports whether the slice lies in F_i. Under
	// closed-world labelling an i-slice is forbidden iff no positive
	// tuple extends it; under explicit labelling iff every one of its
	// |D|^(k-i) extensions is an explicit negative. A slice absent from
	// the index is forbidden exactly under closed-world labelling.
	sliceForbidden []bool
	// classCount[(rel, i)] is the number of distinct positive i-slices
	// of rel (closed world) or of forbidden ones (explicit labelling):
	// the data behind CountForbidden, counted once here.
	classCount map[sliceClass]uint64

	maxArity int
}

// sliceClass names the i-slices of one output relation.
type sliceClass struct {
	rel relation.RelID
	i   int
}

func (e *Example) sliceAt(id int32) relation.Tuple { return e.sliceKeys[id] }

// slice returns the id of the i-slice of t, registering it when new.
// A new slice starts forbidden under closed-world labelling (until a
// positive extends it) and allowed under explicit labelling.
func (e *Example) slice(t relation.Tuple, i int) int32 {
	key := relation.Tuple{Rel: t.Rel, Args: t.Args[:i]}
	id, added := e.slices.Insert(key, int32(len(e.sliceKeys)), e.sliceAt)
	if added {
		e.sliceKeys = append(e.sliceKeys, key)
		e.sliceForbidden = append(e.sliceForbidden, e.ClosedWorld)
	}
	return id
}

// Prepare finalizes the task: it computes the data domain, checks
// declarations, materializes complement and neq relations, and builds
// the example oracle. It is idempotent.
func (t *Task) Prepare() error {
	if t.prepared {
		return nil
	}
	t.RawInputCount = t.Input.Size()
	t.RawInputRels = len(t.Schema.Relations(relation.Input))

	domainConsts := t.Input.ConstantsOf(t.Input.AllIDs())

	if err := t.materializeNegation(domainConsts); err != nil {
		return err
	}
	ex := &Example{
		DB:          t.Input,
		DomainSize:  len(domainConsts),
		ClosedWorld: t.ClosedWorld,
		Pos:         t.Pos,
		posIDs:      &relation.TupleSet{},
		negIDs:      &relation.TupleSet{},
		classCount:  make(map[sliceClass]uint64),
	}
	for _, p := range t.Pos {
		ex.maxArity = max(ex.maxArity, len(p.Args))
		ex.posIDs.Add(t.Input.InternTuple(p))
		for i := 1; i <= len(p.Args); i++ {
			ex.sliceForbidden[ex.slice(p, i)] = false
		}
	}
	// negCount[id] is the number of distinct explicit negatives
	// extending slice id.
	var negCount []uint64
	for _, n := range t.Neg {
		ex.maxArity = max(ex.maxArity, len(n.Args))
		if !ex.negIDs.Add(t.Input.InternTuple(n)) {
			continue
		}
		for i := 1; i <= len(n.Args); i++ {
			id := ex.slice(n, i)
			for int(id) >= len(negCount) {
				negCount = append(negCount, 0)
			}
			negCount[id]++
		}
	}
	// Under explicit labelling an i-slice is forbidden iff all
	// |D|^(k-i) extensions are negative.
	if !t.ClosedWorld {
		for _, n := range t.Neg {
			k := len(n.Args)
			for i := 1; i <= k; i++ {
				id := ex.slice(n, i)
				want, ok := powUint(uint64(ex.DomainSize), k-i)
				if ok && negCount[id] >= want {
					ex.sliceForbidden[id] = true
				}
			}
		}
	}
	for id, key := range ex.sliceKeys {
		if ex.sliceForbidden[id] != t.ClosedWorld {
			ex.classCount[sliceClass{key.Rel, len(key.Args)}]++
		}
	}
	t.example = ex
	t.prepared = true
	if err := t.validate(); err != nil {
		return err
	}
	return t.parseIntended()
}

// parseIntended resolves the intended-program source against the
// prepared schema (so that materialized not_* and neq relations are
// in scope) and checks each rule.
func (t *Task) parseIntended() error {
	for _, src := range t.IntendedSrc {
		r, err := parser.ParseRule(src, t.Schema, t.Domain)
		if err != nil {
			return fmt.Errorf("task %s: intended: %w", t.Name, err)
		}
		if err := r.Validate(t.Schema); err != nil {
			return fmt.Errorf("task %s: intended rule %q: %w", t.Name, src, err)
		}
		t.intended.Rules = append(t.intended.Rules, r)
	}
	return nil
}

// HasIntended reports whether the task declares an intended program.
func (t *Task) HasIntended() bool { return len(t.IntendedSrc) > 0 }

// Intended returns the parsed intended program; Prepare must have
// been called. The returned UCQ is empty when the task declares none.
func (t *Task) Intended() query.UCQ {
	if !t.prepared {
		panic("task: Intended called before Prepare")
	}
	return t.intended
}

// validate performs sanity checks after preparation.
func (t *Task) validate() error {
	for _, p := range t.Pos {
		if t.Schema.Info(p.Rel).Kind != relation.Output {
			return fmt.Errorf("task %s: positive tuple over non-output relation %s",
				t.Name, t.Schema.Name(p.Rel))
		}
	}
	for _, n := range t.Neg {
		if t.Schema.Info(n.Rel).Kind != relation.Output {
			return fmt.Errorf("task %s: negative tuple over non-output relation %s",
				t.Name, t.Schema.Name(n.Rel))
		}
		if t.example.IsPositive(n) {
			return fmt.Errorf("task %s: tuple %s labelled both positive and negative",
				t.Name, n.String(t.Schema, t.Domain))
		}
	}
	if t.ClosedWorld && len(t.Neg) > 0 {
		return fmt.Errorf("task %s: explicit negative tuples are incompatible with closed-world labelling", t.Name)
	}
	return nil
}

// Relabel returns a new prepared Task sharing this (already
// prepared) task's input database, schema, and domain, with the
// given additional example labels. It supports interactive
// workflows: each user answer extends the example and the task is
// re-synthesized.
//
// The receiver must be prepared and use explicit labelling: under
// closed-world labelling every tuple is already labelled, so there
// is nothing to add. Complement and neq relations are not
// re-materialized (they are already in the shared database), and
// RawInputCount is preserved.
func (t *Task) Relabel(extraPos, extraNeg []relation.Tuple) (*Task, error) {
	if !t.prepared {
		return nil, fmt.Errorf("task %s: Relabel before Prepare", t.Name)
	}
	if t.ClosedWorld && len(extraNeg) > 0 {
		return nil, fmt.Errorf("task %s: closed-world tasks have no unlabelled tuples to relabel", t.Name)
	}
	nt := &Task{
		Name:        t.Name,
		Category:    t.Category,
		Expect:      ExpectUnknown,
		ClosedWorld: t.ClosedWorld,
		// Negation is already materialized in the shared database.
		Modes:       t.Modes,
		IntendedSrc: t.IntendedSrc,
		Schema:      t.Schema,
		Domain:      t.Domain,
		Input:       t.Input,
		Pos:         append(append([]relation.Tuple(nil), t.Pos...), extraPos...),
		Neg:         append(append([]relation.Tuple(nil), t.Neg...), extraNeg...),
	}
	if err := nt.Prepare(); err != nil {
		return nil, err
	}
	nt.RawInputCount = t.RawInputCount
	nt.RawInputRels = t.RawInputRels
	return nt, nil
}

// Revise returns a new prepared Task sharing this (already prepared)
// task's input database, schema, and domain, with the example labels
// replaced wholesale by pos and neg. Unlike Relabel, which can only
// add labels, Revise supports removal and relabelling, and is
// permitted under closed-world labelling, where the positive list is
// the entire labelling. It is the revision constructor behind
// incremental sessions: every delta yields a Revise'd task over the
// same (possibly overlay-grown) database, so interned tuple ids and
// warm search state stay valid.
//
// Complement and neq relations are not re-materialized (they are
// already in the shared database), and RawInputCount/RawInputRels are
// preserved.
func (t *Task) Revise(pos, neg []relation.Tuple) (*Task, error) {
	if !t.prepared {
		return nil, fmt.Errorf("task %s: Revise before Prepare", t.Name)
	}
	if t.ClosedWorld && len(neg) > 0 {
		return nil, fmt.Errorf("task %s: explicit negative tuples are incompatible with closed-world labelling", t.Name)
	}
	nt := &Task{
		Name:        t.Name,
		Category:    t.Category,
		Expect:      ExpectUnknown,
		ClosedWorld: t.ClosedWorld,
		// Negation is already materialized in the shared database.
		Modes:       t.Modes,
		IntendedSrc: t.IntendedSrc,
		Schema:      t.Schema,
		Domain:      t.Domain,
		Input:       t.Input,
		Pos:         append([]relation.Tuple(nil), pos...),
		Neg:         append([]relation.Tuple(nil), neg...),
	}
	if err := nt.Prepare(); err != nil {
		return nil, err
	}
	nt.RawInputCount = t.RawInputCount
	nt.RawInputRels = t.RawInputRels
	return nt, nil
}

// Example returns the prepared oracle; Prepare must have been called.
func (t *Task) Example() *Example {
	if !t.prepared {
		panic("task: Example called before Prepare")
	}
	return t.example
}

// materializeNegation adds not_R for each relation in NegateRels and
// the neq relation when requested. Under the paper's untyped
// construction (Section 5.3) complements range over the data domain
// D; with TypedNegation they range over the inferred column types of
// the negated relation (the Section 3.1 typed extension).
func (t *Task) materializeNegation(domain []relation.Const) error {
	var assign *types.Assignment
	if t.TypedNegation {
		assign = types.Infer(t.Input)
	}
	for _, name := range t.NegateRels {
		rel, ok := t.Schema.Lookup(name)
		if !ok {
			return fmt.Errorf("task %s: negate: undeclared relation %q", t.Name, name)
		}
		if t.Schema.Info(rel).Kind != relation.Input {
			return fmt.Errorf("task %s: negate: %q is not an input relation", t.Name, name)
		}
		arity := t.Schema.Arity(rel)
		comp, err := t.Schema.Declare("not_"+name, arity, relation.Input)
		if err != nil {
			return fmt.Errorf("task %s: %v", t.Name, err)
		}
		// columnDomain returns the candidate constants for column i.
		columnDomain := func(i int) []relation.Const {
			if assign == nil {
				return domain
			}
			tid, ok := assign.ColumnType(rel, i)
			if !ok {
				return nil
			}
			return assign.DomainOf(tid)
		}
		args := make([]relation.Const, arity)
		var emit func(i int)
		emit = func(i int) {
			if i == arity {
				cand := relation.Tuple{Rel: rel, Args: args}
				if !t.Input.Contains(cand) {
					t.Input.Insert(relation.Tuple{Rel: comp, Args: append([]relation.Const(nil), args...)})
				}
				return
			}
			for _, c := range columnDomain(i) {
				args[i] = c
				emit(i + 1)
			}
		}
		emit(0)
	}
	if t.AddNeq {
		neq, err := t.Schema.Declare("neq", 2, relation.Input)
		if err != nil {
			return fmt.Errorf("task %s: %v", t.Name, err)
		}
		pairs := func(dom []relation.Const) {
			for _, a := range dom {
				for _, b := range dom {
					if a != b {
						t.Input.Insert(relation.NewTuple(neq, a, b))
					}
				}
			}
		}
		if assign != nil {
			for tid := 0; tid < assign.NumTypes(); tid++ {
				pairs(assign.DomainOf(types.TypeID(tid)))
			}
		} else {
			pairs(domain)
		}
	}
	return nil
}

// powUint computes base^exp, reporting overflow via ok=false.
func powUint(base uint64, exp int) (uint64, bool) {
	result := uint64(1)
	for i := 0; i < exp; i++ {
		if base != 0 && result > (1<<62)/base {
			return 0, false
		}
		result *= base
	}
	return result, true
}

// PosIDs returns O+ as a bitset over the database's ids. The returned
// set is shared; callers must not mutate it.
func (e *Example) PosIDs() *relation.TupleSet { return e.posIDs }

// IsPositive reports whether tuple t is in O+.
func (e *Example) IsPositive(t relation.Tuple) bool {
	return e.posIDs.Has(e.DB.InternTuple(t))
}

// IsPositiveID is IsPositive for an already-interned tuple id.
func (e *Example) IsPositiveID(id relation.TupleID) bool { return e.posIDs.Has(id) }

// IsNegative reports whether tuple t is a negative example: under
// closed-world labelling, any output tuple not in O+; otherwise,
// membership in the explicit O-.
func (e *Example) IsNegative(t relation.Tuple) bool {
	return e.IsNegativeID(e.DB.InternTuple(t))
}

// IsNegativeID is IsNegative for an already-interned tuple id. Like
// IsNegative, it assumes the tuple is over an output relation (input
// facts are neither positive nor negative examples).
func (e *Example) IsNegativeID(id relation.TupleID) bool {
	if e.ClosedWorld {
		return !e.posIDs.Has(id)
	}
	return e.negIDs.Has(id)
}

// ForbiddenSlice reports whether the i-slice (t.Rel, t.Args[:i]) lies
// in the forbidden set F_i of Equation 7: every extension of the
// slice to full arity is a negative example.
func (e *Example) ForbiddenSlice(t relation.Tuple, i int) bool {
	if i >= len(t.Args) {
		return e.IsNegative(t)
	}
	return e.ForbiddenPrefix(relation.Tuple{Rel: t.Rel, Args: t.Args[:i]})
}

// ForbiddenPrefix is ForbiddenSlice for a proper i-slice given as the
// tuple (Rel, t[1..i]) itself — the head tuple a slice rule derives.
// Full-arity slices are ground tuples; test those with IsNegativeID.
func (e *Example) ForbiddenPrefix(s relation.Tuple) bool {
	id, ok := e.slices.Find(s, e.sliceAt)
	if !ok {
		return e.ClosedWorld
	}
	return e.sliceForbidden[id]
}

// CountForbidden returns |F_i| for output relation rel of arity k:
// the denominator data for the paper's score function at slice i.
// The bool result is false if the count overflows uint64 (treated by
// callers as "astronomically large").
func (e *Example) CountForbidden(rel relation.RelID, i, k int) (uint64, bool) {
	n := e.classCount[sliceClass{rel, i}]
	if !e.ClosedWorld {
		return n, true
	}
	total, ok := powUint(uint64(e.DomainSize), i)
	if !ok {
		return 0, false
	}
	if i > e.maxArity {
		return total, true
	}
	if n > total {
		return 0, true
	}
	return total - n, true
}

// Consistent reports whether query q is consistent with the example:
// it derives every positive tuple and no negative tuple. When it
// returns false, the second result explains why.
func (e *Example) Consistent(q query.UCQ) (bool, string) {
	outs := eval.UCQOutputIDs(q, e.DB)
	for _, p := range e.Pos {
		if !outs.Has(e.DB.InternTuple(p)) {
			return false, fmt.Sprintf("does not derive positive tuple %s", p.String(e.DB.Schema, e.DB.Domain))
		}
	}
	bad := relation.TupleID(-1)
	outs.Iterate(func(id relation.TupleID) bool {
		if e.IsNegativeID(id) {
			bad = id
			return false
		}
		return true
	})
	if bad >= 0 {
		return false, fmt.Sprintf("derives negative tuple %s", e.DB.TupleByID(bad).String(e.DB.Schema, e.DB.Domain))
	}
	return true, ""
}

// RuleConsistentWithNegatives reports whether a single rule derives
// no negative tuples (its positive coverage is checked separately).
func (e *Example) RuleConsistentWithNegatives(r query.Rule) bool {
	ok := true
	eval.EvalRuleIDs(r, e.DB, func(id relation.TupleID) bool {
		if e.IsNegativeID(id) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// OutputRelations returns the output relation ids mentioned by O+
// and O-, sorted by name.
func (t *Task) OutputRelations() []relation.RelID {
	seen := map[relation.RelID]bool{}
	var rels []relation.RelID
	add := func(ts []relation.Tuple) {
		for _, tu := range ts {
			if !seen[tu.Rel] {
				seen[tu.Rel] = true
				rels = append(rels, tu.Rel)
			}
		}
	}
	add(t.Pos)
	add(t.Neg)
	sort.Slice(rels, func(i, j int) bool {
		return t.Schema.Name(rels[i]) < t.Schema.Name(rels[j])
	})
	return rels
}
