// Package egs synthesizes relational queries — unions of conjunctive
// queries with negation — from input-output examples, implementing
// Example-Guided Synthesis (Thakkar, Naik, Sands, Alur, Naik,
// Raghothaman: "Example-Guided Synthesis of Relational Queries",
// PLDI 2021).
//
// Unlike syntax-guided synthesizers, EGS enumerates candidate
// programs by following co-occurrence patterns between constants in
// the examples themselves (the constant co-occurrence graph of the
// paper's Section 4). This makes it fast on realizable tasks and —
// because the context space is finite — *complete*: when no
// consistent query exists, Synthesize proves it and reports Unsat.
//
// # Synthesis tasks
//
// A task consists of input relations with ground facts, output
// relations, and labelled output tuples. Build one programmatically:
//
//	b := egs.NewBuilder()
//	b.Input("parent", 2)
//	b.Output("grandparent", 2)
//	b.Fact("parent", "alice", "bob")
//	b.Fact("parent", "bob", "carol")
//	b.Positive("grandparent", "alice", "carol")
//	b.Negative("grandparent", "alice", "bob")
//	t, err := b.Task()
//
// or parse the declarative task format (see the testdata/benchmarks
// directory and DESIGN.md for the grammar):
//
//	t, err := egs.LoadTask("grandparent.task")
//
// Unlabelled output tuples are unconstrained by default; call
// Builder.ClosedWorld(true) (or the closed-world directive) to treat
// every unlabelled tuple over the data domain as negative.
//
// # Negation
//
// Synthesized queries are unions of conjunctive queries in negation
// normal form (Section 5.3): negated relations appear as ordinary
// complement relations. Builder.Negate("r") materializes not_r, and
// Builder.AddNeq() provides the built-in inequality relation.
//
// # Results
//
//	res, err := egs.Synthesize(ctx, t, egs.Options{})
//	if res.Unsat { ... no consistent query exists ... }
//	fmt.Println(res.Query.Datalog())
//
// The returned program is guaranteed consistent: it derives every
// positive tuple and no negative tuple. Verify independently with
// Task.Consistent.
package egs

import (
	"context"
	"fmt"
	"io"
	"sort"

	"github.com/egs-synthesis/egs/internal/active"
	coreegs "github.com/egs-synthesis/egs/internal/egs"
	"github.com/egs-synthesis/egs/internal/eval"
	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/relation"
	"github.com/egs-synthesis/egs/internal/sqlgen"
	"github.com/egs-synthesis/egs/internal/task"
	"github.com/egs-synthesis/egs/internal/trace"
)

// Priority selects the worklist ordering of the search (Section 4.3
// of the paper).
type Priority uint8

const (
	// PriorityScore orders enumeration contexts by explanatory power
	// per literal, then size (the paper's p2; the default).
	PriorityScore Priority = iota
	// PrioritySize orders contexts by size only (the paper's p1),
	// guaranteeing a syntactically smallest solution.
	PrioritySize
)

// Options configures Synthesize. The zero value is the paper's
// configuration.
type Options struct {
	// Priority selects the queue ordering.
	Priority Priority
	// QuickUnsat short-circuits unrealizable instances using the
	// paper's Lemma 4.2 instead of exhausting the context space.
	QuickUnsat bool
	// MaxContexts caps the number of enumeration contexts explored
	// per output cell; 0 means unlimited. When the cap is hit,
	// Synthesize returns ErrBudgetExceeded.
	MaxContexts int
	// BestEffort tolerates noise in the examples: positive tuples
	// that admit no consistent explanation are skipped and reported
	// in Result.Uncovered instead of failing the task. The returned
	// program still derives no negative tuple.
	BestEffort bool
	// Workers > 1 explains positive tuples concurrently (the
	// per-tuple searches of Algorithm 3 are independent). The result
	// is consistent exactly as in the sequential algorithm, though
	// its union may decompose differently; 0 or 1 keeps the paper's
	// sequential behaviour.
	Workers int
	// AssessParallelism > 1 evaluates the candidate rules of each
	// worklist expansion on a bounded worker pool. Unlike Workers,
	// this parallelism is invisible in the result: the learned rules
	// and unsat verdicts are bit-identical to the sequential search.
	// It composes with Workers (each tuple-explaining worker gets its
	// own assessment pool).
	AssessParallelism int
	// Trace, when non-nil, collects structured search events (cell
	// spans, context pops, assessment batches, memo hits, worker-pool
	// round-trips, worklist high-water marks) into the given Trace for
	// later export. Tracing never alters the search: results are
	// identical with Trace set or nil. A Trace may be reused across
	// runs; events accumulate until Reset.
	Trace *Trace
}

// Trace accumulates structured events from traced synthesis runs (see
// Options.Trace). Create one with NewTrace, run one or more syntheses
// with it, then export with WriteChrome (about://tracing / Perfetto)
// or WriteNDJSON (one compact JSON object per event). A Trace is safe
// for concurrent use by the searchers of a single traced run; the
// export order is deterministic (by searcher, then record order).
type Trace struct {
	c *trace.Collector
}

// NewTrace returns an empty trace ready to pass in Options.Trace.
func NewTrace() *Trace { return &Trace{c: trace.NewCollector()} }

// WriteChrome renders the collected events in the Chrome trace-event
// JSON format, loadable in about://tracing or https://ui.perfetto.dev.
func (tr *Trace) WriteChrome(w io.Writer) error {
	return trace.WriteChrome(w, tr.c.Events())
}

// WriteNDJSON renders the collected events as newline-delimited JSON,
// one compact object per event.
func (tr *Trace) WriteNDJSON(w io.Writer) error {
	return trace.WriteNDJSON(w, tr.c.Events())
}

// NumEvents returns the number of events collected so far.
func (tr *Trace) NumEvents() int { return tr.c.Len() }

// Reset discards all collected events, keeping the trace reusable.
func (tr *Trace) Reset() { tr.c.Reset() }

// coreOptions lowers Options to the internal representation.
func (o Options) coreOptions() coreegs.Options {
	c := coreegs.Options{
		QuickUnsat:        o.QuickUnsat,
		MaxContexts:       o.MaxContexts,
		BestEffort:        o.BestEffort,
		AssessParallelism: o.AssessParallelism,
	}
	if o.Priority == PrioritySize {
		c.Priority = coreegs.P1
	}
	if o.Trace != nil {
		c.Trace = o.Trace.c
	}
	return c
}

// ErrBudgetExceeded is returned when Options.MaxContexts was
// exhausted before the search completed.
var ErrBudgetExceeded = coreegs.ErrBudgetExceeded

// Stats reports the work performed by one synthesis run.
type Stats struct {
	// ContextsExplored counts enumeration contexts popped from the
	// worklist.
	ContextsExplored int
	// CandidatesEvaluated counts candidate-rule evaluations actually
	// executed.
	CandidatesEvaluated int
	// CandidatesCached counts candidate assessments answered from the
	// canonical-rule memo instead of re-evaluating. The cache-hit
	// rate is CandidatesCached / (CandidatesEvaluated + CandidatesCached).
	CandidatesCached int
	// RulesLearned is the number of rules in the result.
	RulesLearned int
}

// Task is a prepared synthesis task.
type Task struct {
	t *task.Task
}

// Builder constructs a Task programmatically. The zero value is not
// ready; use NewBuilder.
type Builder struct {
	t      *task.Task
	err    error
	closed bool
}

// NewBuilder returns an empty task builder with open-world labelling.
func NewBuilder() *Builder {
	s := relation.NewSchema()
	d := relation.NewDomain()
	return &Builder{t: &task.Task{
		Name:   "task",
		Schema: s,
		Domain: d,
		Input:  relation.NewDatabase(s, d),
	}}
}

// Name sets the task's name (used in diagnostics).
func (b *Builder) Name(name string) *Builder {
	b.t.Name = name
	return b
}

// Input declares an input relation with the given arity.
func (b *Builder) Input(name string, arity int) *Builder {
	if b.err == nil {
		_, b.err = b.t.Schema.Declare(name, arity, relation.Input)
	}
	return b
}

// Output declares an output relation with the given arity.
func (b *Builder) Output(name string, arity int) *Builder {
	if b.err == nil {
		_, b.err = b.t.Schema.Declare(name, arity, relation.Output)
	}
	return b
}

// resolve interns a ground atom over a declared relation.
func (b *Builder) resolve(kind relation.Kind, rel string, args []string) (relation.Tuple, bool) {
	if b.err != nil {
		return relation.Tuple{}, false
	}
	id, ok := b.t.Schema.Lookup(rel)
	if !ok {
		b.err = fmt.Errorf("egs: undeclared relation %q", rel)
		return relation.Tuple{}, false
	}
	info := b.t.Schema.Info(id)
	if info.Kind != kind {
		b.err = fmt.Errorf("egs: relation %q is %v, want %v", rel, info.Kind, kind)
		return relation.Tuple{}, false
	}
	if info.Arity != len(args) {
		b.err = fmt.Errorf("egs: relation %q has arity %d, got %d arguments", rel, info.Arity, len(args))
		return relation.Tuple{}, false
	}
	consts := make([]relation.Const, len(args))
	for i, a := range args {
		consts[i] = b.t.Domain.Intern(a)
	}
	return relation.Tuple{Rel: id, Args: consts}, true
}

// Fact adds an input fact.
func (b *Builder) Fact(rel string, args ...string) *Builder {
	if t, ok := b.resolve(relation.Input, rel, args); ok {
		b.t.Input.Insert(t)
	}
	return b
}

// Positive adds a desirable output tuple (a member of O+).
func (b *Builder) Positive(rel string, args ...string) *Builder {
	if t, ok := b.resolve(relation.Output, rel, args); ok {
		b.t.Pos = append(b.t.Pos, t)
	}
	return b
}

// Negative adds an undesirable output tuple (a member of O-).
// Incompatible with ClosedWorld(true).
func (b *Builder) Negative(rel string, args ...string) *Builder {
	if t, ok := b.resolve(relation.Output, rel, args); ok {
		b.t.Neg = append(b.t.Neg, t)
	}
	return b
}

// ClosedWorld selects complete labelling: every output tuple over
// the data domain that is not positive is negative.
func (b *Builder) ClosedWorld(on bool) *Builder {
	b.t.ClosedWorld = on
	return b
}

// Negate materializes the complement relations not_<name> for the
// given input relations (Section 5.3 of the paper).
func (b *Builder) Negate(rels ...string) *Builder {
	b.t.NegateRels = append(b.t.NegateRels, rels...)
	return b
}

// AddNeq provides the built-in inequality relation neq over the data
// domain (Section 5.3).
func (b *Builder) AddNeq() *Builder {
	b.t.AddNeq = true
	return b
}

// TypedNegation makes Negate and AddNeq range over inferred column
// types instead of the whole data domain: two columns share a type
// when they share a constant. This keeps complements small when the
// domain mixes entities of different kinds (program variables and
// type names, say), and is the typed-domains extension the paper
// sketches in Section 3.1.
func (b *Builder) TypedNegation() *Builder {
	b.t.TypedNegation = true
	return b
}

// Task finalizes the builder. The builder must not be reused after.
func (b *Builder) Task() (*Task, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.closed {
		return nil, fmt.Errorf("egs: builder already finalized")
	}
	b.closed = true
	if err := b.t.Prepare(); err != nil {
		return nil, err
	}
	return &Task{t: b.t}, nil
}

// ParseTask reads a task in the declarative task-file format.
func ParseTask(r io.Reader) (*Task, error) {
	t, err := task.Parse(r)
	if err != nil {
		return nil, err
	}
	return &Task{t: t}, nil
}

// LoadTask reads a task file from disk.
func LoadTask(path string) (*Task, error) {
	t, err := task.Load(path)
	if err != nil {
		return nil, err
	}
	return &Task{t: t}, nil
}

// Name returns the task's name.
func (t *Task) Name() string { return t.t.Name }

// CanonicalHash returns a stable hex-encoded digest of the task's
// example semantics: two tasks hash equal exactly when they describe
// the same synthesis problem, independent of declaration order, fact
// order, or naming metadata. It is the result-cache key used by the
// synthesis server and is cheap enough to compute per request.
func (t *Task) CanonicalHash() string { return task.CanonicalHash(t.t) }

// BaseHash returns a stable hex-encoded digest of the task's
// extensional part: relation declarations, input facts, and the
// labelling/negation directives, excluding the example labels. Two
// tasks share a base hash exactly when they pose (possibly different)
// questions over the same database. It keys the synthesis server's
// copy-on-write snapshot cache (see AdoptExamples).
func (t *Task) BaseHash() string { return task.BaseHash(t.t) }

// AdoptExamples returns a prepared task that carries o's example
// labels over t's interned database, schema, and domain. It is the
// copy-on-write snapshot path of the synthesis server: when two
// requests share a base (equal BaseHash), the second can adopt the
// first's already-interned, already-indexed database instead of
// rebuilding it, at the cost of interning only its example tuples.
//
// The receivers' bases must match (callers gate on BaseHash
// equality). Adoption never inserts facts — example tuples are only
// interned, which the database supports concurrently — so t's
// TupleIDs, column caches, and frozen extents all stay valid, and
// any number of adopted tasks may be synthesized concurrently over
// the shared database.
//
// ok is false when o's examples mention a constant absent from t's
// domain (interning it would race concurrent readers); callers fall
// back to o itself, which is always correct.
func (t *Task) AdoptExamples(o *Task) (*Task, bool, error) {
	translate := func(tuples []relation.Tuple) ([]relation.Tuple, bool) {
		out := make([]relation.Tuple, 0, len(tuples))
		for _, tu := range tuples {
			rel, found := t.t.Schema.Lookup(o.t.Schema.Name(tu.Rel))
			if !found || t.t.Schema.Arity(rel) != len(tu.Args) {
				return nil, false
			}
			args := make([]relation.Const, len(tu.Args))
			for i, c := range tu.Args {
				tc, found := t.t.Domain.Lookup(o.t.Domain.Name(c))
				if !found {
					return nil, false
				}
				args[i] = tc
			}
			out = append(out, relation.Tuple{Rel: rel, Args: args})
		}
		return out, true
	}
	pos, ok := translate(o.t.Pos)
	if !ok {
		return nil, false, nil
	}
	neg, ok := translate(o.t.Neg)
	if !ok {
		return nil, false, nil
	}
	nt, err := t.t.Revise(pos, neg)
	if err != nil {
		return nil, false, err
	}
	nt.Name = o.t.Name
	return &Task{t: nt}, true, nil
}

// NumFacts returns the number of input facts (before negation
// preprocessing).
func (t *Task) NumFacts() int { return t.t.RawInputCount }

// NumExamples returns the number of labelled output tuples: |O+| and
// the explicit |O-| (0 under closed-world labelling, where negatives
// are implicit).
func (t *Task) NumExamples() (pos, neg int) { return len(t.t.Pos), len(t.t.Neg) }

// Consistent checks a query against the task's example: it must
// derive every positive tuple and no negative tuple. On failure the
// second result describes the first violation.
func (t *Task) Consistent(q *Query) (bool, string) {
	return t.t.Example().Consistent(q.ucq)
}

// Query is a synthesized union of conjunctive queries, bound to the
// schema it was synthesized against.
type Query struct {
	ucq    query.UCQ
	schema *relation.Schema
	domain *relation.Domain
}

// Datalog renders the query, one rule per line, e.g.
//
//	grandparent(x, z) :- parent(x, y), parent(y, z).
func (q *Query) Datalog() string { return q.ucq.String(q.schema, q.domain) }

// String implements fmt.Stringer.
func (q *Query) String() string { return q.Datalog() }

// SQL renders the query as a SQL statement: one SELECT DISTINCT per
// rule, joined by UNION. Columns are positional (c0, c1, ...);
// complement relations (not_r, neq) appear as tables and would be
// defined as views in a deployment.
func (q *Query) SQL() (string, error) { return sqlgen.UCQ(q.ucq, q.schema, q.domain) }

// NumRules returns the number of rules (disjuncts).
func (q *Query) NumRules() int { return len(q.ucq.Rules) }

// NumLiterals returns the total number of body literals, the paper's
// measure of program size.
func (q *Query) NumLiterals() int { return q.ucq.Size() }

// Eval runs the query over the task it was synthesized from and
// returns the derived tuples, each rendered as relation(c1, ..., ck).
func (q *Query) Eval(t *Task) []string {
	db := t.t.Input
	var res []string
	eval.UCQOutputIDs(q.ucq, db).Iterate(func(id relation.TupleID) bool {
		res = append(res, db.TupleByID(id).String(t.t.Schema, t.t.Domain))
		return true
	})
	sort.Strings(res)
	return res
}

// Result is the outcome of Synthesize.
type Result struct {
	// Query is the synthesized program (nil when Unsat).
	Query *Query
	// Unsat reports that no consistent query exists in the language
	// of unions of conjunctive queries over the task's relations —
	// a proof, by the paper's Theorem 4.3.
	Unsat bool
	// UnsatReason explains an Unsat verdict: which output tuple is
	// unexplainable, at which field, and which completeness argument
	// (Theorem 4.3 exhaustion or the Lemma 4.2 fast path) applies.
	UnsatReason string
	// Uncovered lists positive tuples (rendered as rel(c1, ..., ck))
	// left unexplained in best-effort mode; empty otherwise.
	Uncovered []string
	// Stats describes the search.
	Stats Stats
}

// ExplainTuple synthesizes a single conjunctive query explaining one
// positive output tuple (the paper's Algorithm 2): the returned query
// derives the tuple and no negative tuple. ok is false when no such
// query exists. The tuple need not be one of the task's declared
// positives, but its relation must be a declared output relation.
func ExplainTuple(ctx context.Context, t *Task, rel string, args []string, opts Options) (q *Query, ok bool, err error) {
	id, found := t.t.Schema.Lookup(rel)
	if !found {
		return nil, false, fmt.Errorf("egs: undeclared relation %q", rel)
	}
	if got, want := len(args), t.t.Schema.Arity(id); got != want {
		return nil, false, fmt.Errorf("egs: relation %q has arity %d, got %d arguments", rel, want, got)
	}
	consts := make([]relation.Const, len(args))
	for i, a := range args {
		c, found := t.t.Domain.Lookup(a)
		if !found {
			// A constant absent from the data domain cannot be
			// explained by any context (Section 6.5).
			return nil, false, nil
		}
		consts[i] = c
	}
	coreOpts := coreegs.Options{
		QuickUnsat:        opts.QuickUnsat,
		MaxContexts:       opts.MaxContexts,
		AssessParallelism: opts.AssessParallelism,
	}
	if opts.Priority == PrioritySize {
		coreOpts.Priority = coreegs.P1
	}
	if opts.Trace != nil {
		coreOpts.Trace = opts.Trace.c
	}
	rule, ok, err := coreegs.ExplainOne(ctx, t.t, relation.Tuple{Rel: id, Args: consts}, coreOpts)
	if err != nil || !ok {
		return nil, false, err
	}
	return &Query{
		ucq:    query.UCQ{Rules: []query.Rule{rule}},
		schema: t.t.Schema,
		domain: t.t.Domain,
	}, true, nil
}

// Synthesize runs the EGS algorithm on the task. It returns a
// consistent query, or a proof of unrealizability (Result.Unsat), or
// an error if ctx expires or Options.MaxContexts is exceeded.
func Synthesize(ctx context.Context, t *Task, opts Options) (Result, error) {
	var res coreegs.Result
	var err error
	if opts.Workers > 1 {
		res, err = coreegs.SynthesizeParallel(ctx, t.t, opts.coreOptions(), opts.Workers)
	} else {
		res, err = coreegs.Synthesize(ctx, t.t, opts.coreOptions())
	}
	if err != nil {
		return Result{}, err
	}
	return convertResult(t.t, res), nil
}

// convertResult lowers an internal synthesis result to the public
// form, rendering witnesses and uncovered tuples against the given
// task's schema and domain. Shared by Synthesize and Session.Solve.
func convertResult(tk *task.Task, res coreegs.Result) Result {
	out := Result{
		Unsat: res.Unsat,
		Stats: Stats{
			ContextsExplored:    res.Stats.ContextsPopped,
			CandidatesEvaluated: res.Stats.RuleEvals,
			CandidatesCached:    res.Stats.MemoHits,
			RulesLearned:        res.Stats.RulesLearned,
		},
	}
	for _, u := range res.Uncovered {
		out.Uncovered = append(out.Uncovered, u.String(tk.Schema, tk.Domain))
	}
	if res.Witness != nil {
		out.UnsatReason = res.Witness.String(tk.Schema, tk.Domain)
	}
	if !res.Unsat {
		out.Query = &Query{ucq: res.Query, schema: tk.Schema, domain: tk.Domain}
	}
	return out
}

// Alternatives synthesizes up to k distinct single-rule queries,
// each explaining the given output tuple while deriving no negative
// tuple, in the order the example-guided search discovers them. The
// alternatives support disambiguation workflows: where two
// alternatives disagree on some derived tuple, labelling that tuple
// narrows the user's intent.
func Alternatives(ctx context.Context, t *Task, rel string, args []string, k int, opts Options) ([]*Query, error) {
	id, found := t.t.Schema.Lookup(rel)
	if !found {
		return nil, fmt.Errorf("egs: undeclared relation %q", rel)
	}
	if got, want := len(args), t.t.Schema.Arity(id); got != want {
		return nil, fmt.Errorf("egs: relation %q has arity %d, got %d arguments", rel, want, got)
	}
	consts := make([]relation.Const, len(args))
	for i, a := range args {
		c, found := t.t.Domain.Lookup(a)
		if !found {
			return nil, nil // unexplainable: constant outside the data domain
		}
		consts[i] = c
	}
	rules, err := coreegs.Alternatives(ctx, t.t, relation.Tuple{Rel: id, Args: consts}, k, opts.coreOptions())
	if err != nil {
		return nil, err
	}
	out := make([]*Query, len(rules))
	for i, r := range rules {
		out[i] = &Query{ucq: query.UCQ{Rules: []query.Rule{r}}, schema: t.t.Schema, domain: t.t.Domain}
	}
	return out, nil
}

// Oracle answers interactive membership queries: is the output tuple
// rel(args...) desirable? It stands in for the user in Interact.
type Oracle func(rel string, args []string) bool

// InteractConfig tunes the interactive synthesis loop.
type InteractConfig struct {
	// MaxQuestions caps oracle interactions (default 10).
	MaxQuestions int
	// Options forwards to the synthesizer.
	Options Options
}

// InteractResult is the outcome of an interactive session.
type InteractResult struct {
	// Query is consistent with the original labels plus every answer
	// (nil when Unsat).
	Query *Query
	// Unsat reports that the acquired labels admit no consistent
	// query.
	Unsat bool
	// Converged is true when the concept is pinned down with respect
	// to the training input: alternative explanations agree and every
	// prediction has been confirmed.
	Converged bool
	// Questions lists the tuples the oracle was asked about, rendered
	// as rel(c1, ..., ck), with the given answers.
	Questions []struct {
		Tuple    string
		Positive bool
	}
}

// Interact runs an active-learning loop (the interactive-feedback
// direction of the paper's Section 8): starting from a partially
// labelled task, it repeatedly synthesizes, finds an output tuple
// that would discriminate between alternative explanations (or an
// unconfirmed prediction), and asks the oracle to label it. The task
// must use explicit labelling (not closed-world).
func Interact(ctx context.Context, t *Task, oracle Oracle, cfg InteractConfig) (InteractResult, error) {
	res, err := active.Learn(ctx, t.t, func(tu relation.Tuple) bool {
		args := make([]string, len(tu.Args))
		for i, c := range tu.Args {
			args[i] = t.t.Domain.Name(c)
		}
		return oracle(t.t.Schema.Name(tu.Rel), args)
	}, active.Config{
		MaxRounds: cfg.MaxQuestions,
		Options:   cfg.Options.coreOptions(),
	})
	if err != nil {
		return InteractResult{}, err
	}
	out := InteractResult{Unsat: res.Unsat, Converged: res.Converged}
	for _, l := range res.Labels {
		out.Questions = append(out.Questions, struct {
			Tuple    string
			Positive bool
		}{l.Tuple.String(t.t.Schema, t.t.Domain), l.Positive})
	}
	if !res.Unsat {
		out.Query = &Query{ucq: res.Query, schema: t.t.Schema, domain: t.t.Domain}
	}
	return out, nil
}

// Explanation is a why-provenance witness: the input facts that
// justify one derived tuple under one rule of a query.
type Explanation struct {
	// Rule is the justifying rule, in Datalog syntax.
	Rule string
	// Facts are the matched input facts, one per body literal.
	Facts []string
}

// Explain returns why the query derives the given tuple: the first
// rule that derives it together with the input facts witnessing the
// derivation. ok is false when the query does not derive the tuple.
func (q *Query) Explain(t *Task, rel string, args []string) (Explanation, bool) {
	id, found := t.t.Schema.Lookup(rel)
	if !found || t.t.Schema.Arity(id) != len(args) {
		return Explanation{}, false
	}
	consts := make([]relation.Const, len(args))
	for i, a := range args {
		c, found := t.t.Domain.Lookup(a)
		if !found {
			return Explanation{}, false
		}
		consts[i] = c
	}
	d, ok := eval.WhyUCQ(q.ucq, t.t.Input, relation.Tuple{Rel: id, Args: consts})
	if !ok {
		return Explanation{}, false
	}
	e := Explanation{Rule: d.Rule.String(t.t.Schema, t.t.Domain)}
	for _, w := range d.Witnesses {
		e.Facts = append(e.Facts, w.String(t.t.Schema, t.t.Domain))
	}
	return e, true
}
