// Package session implements incremental synthesis sessions: the
// interactive-feedback loop of Section 8 of the EGS paper, where a
// user adds an example, drops one, relabels a disputed tuple, or
// supplies a new fact, and the task is re-synthesized after each
// revision.
//
// A Session owns the warm state that makes revisions cheap:
//
//   - the interned relation.Database, whose TupleIDs stay stable
//     across fact deltas (post-freeze inserts land in generation-
//     stamped overlays, see relation.Database's Generations section);
//   - the constant co-occurrence structure, which lives in that same
//     database's indexes (Mentioning/AtColumn/Extent) and is extended
//     in place by overlay inserts;
//   - the assess memo (egs.Memo), whose validity stamps let entries
//     survive every delta that cannot affect them.
//
// Deltas mutate only label lists and epochs; the revision task itself
// is built lazily at Solve via task.Revise, sharing the database.
// The package never reads a clock (the egslint nodetsource analyzer
// enforces this): session TTLs and eviction are the HTTP layer's
// business, timestamps in traces come from the trace.Recorder.
//
// A Session serializes its methods with an internal mutex: deltas
// never race a running solve. Concurrency across sessions is the
// caller's affair (the server runs each solve through its worker
// pool).
package session

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"github.com/egs-synthesis/egs/internal/egs"
	"github.com/egs-synthesis/egs/internal/relation"
	"github.com/egs-synthesis/egs/internal/task"
	"github.com/egs-synthesis/egs/internal/trace"
)

// Session is one incremental synthesis task, revised by deltas.
type Session struct {
	mu sync.Mutex

	// base is the first prepared revision; it owns the shared database
	// and is the receiver of every task.Revise call.
	base *task.Task
	// cur is the task of the current revision (== base until the first
	// delta is solved).
	cur *task.Task
	// pos and neg are the current example labelling, in label order —
	// the order drives rule learning, so deltas maintain it carefully.
	pos, neg []relation.Tuple

	memo *egs.Memo

	revision int
	deltas   int
	dirty    bool
	// inFactDelta reports that the current delta batch has already
	// opened a new database generation.
	inFactDelta bool
}

// New starts a session from a task. The task is prepared here; its
// database, schema, and domain become session-owned — the caller must
// not mutate them afterwards.
func New(t *task.Task) (*Session, error) {
	if err := t.Prepare(); err != nil {
		return nil, err
	}
	return &Session{
		base: t,
		cur:  t,
		pos:  append([]relation.Tuple(nil), t.Pos...),
		neg:  append([]relation.Tuple(nil), t.Neg...),
		memo: egs.NewMemo(),
	}, nil
}

// resolve translates a named ground atom into a tuple over the
// session's schema and domain, interning constants not seen before
// when intern is true (examples and facts may mention fresh
// constants; lookups must not create them).
func (s *Session) resolve(rel string, kind relation.Kind, intern bool, args []string) (relation.Tuple, relation.RelID, error) {
	id, ok := s.base.Schema.Lookup(rel)
	if !ok {
		return relation.Tuple{}, 0, fmt.Errorf("session: unknown relation %q", rel)
	}
	info := s.base.Schema.Info(id)
	if info.Kind != kind {
		return relation.Tuple{}, 0, fmt.Errorf("session: relation %s is %s, not %s", rel, info.Kind, kind)
	}
	if info.Arity != len(args) {
		return relation.Tuple{}, 0, fmt.Errorf("session: relation %s has arity %d, got %d args", rel, info.Arity, len(args))
	}
	consts := make([]relation.Const, len(args))
	for i, a := range args {
		if c, ok := s.base.Domain.Lookup(a); ok {
			consts[i] = c
			continue
		}
		if !intern {
			return relation.Tuple{}, 0, fmt.Errorf("session: unknown constant %q", a)
		}
		consts[i] = s.base.Domain.Intern(a)
	}
	return relation.Tuple{Rel: id, Args: consts}, id, nil
}

// AddFact inserts a new fact tuple into the session's database. The
// tuple lands in a fresh overlay generation (one per delta batch), so
// every id issued earlier stays stable. Adding a fact that is already
// present is a no-op.
//
// Fact deltas are rejected for tasks with materialized negation
// (negate/neq directives): their complement relations are computed
// from the fact closure at Prepare time and would silently go stale.
func (s *Session) AddFact(rel string, args ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.base.NegateRels) > 0 || s.base.AddNeq {
		return fmt.Errorf("session: fact deltas are not supported for tasks with materialized negation (negate/neq)")
	}
	t, relID, err := s.resolve(rel, relation.Input, true, args)
	if err != nil {
		return err
	}
	db := s.base.Input
	if db.Contains(t) {
		return nil
	}
	if !s.inFactDelta {
		db.BeginGeneration()
		s.inFactDelta = true
	}
	// A constant never mentioned by any fact enters the data domain D
	// with this insert; forbidden-set sizes over D^k change with it.
	domainGrew := false
	for _, c := range t.Args {
		if len(db.Mentioning(c)) == 0 {
			domainGrew = true
			break
		}
	}
	db.Insert(t)
	s.memo.BumpFact(relID)
	if domainGrew {
		s.memo.BumpDomain()
	}
	s.deltas++
	s.dirty = true
	return nil
}

// AddExample appends a labelled example. Labelling a tuple twice with
// the same polarity is a no-op; labelling it with the opposite
// polarity is an error (use RelabelTuple). Closed-world tasks have no
// explicit negatives: every unlabelled tuple already is one.
func (s *Session) AddExample(positive bool, rel string, args ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, relID, err := s.resolve(rel, relation.Output, true, args)
	if err != nil {
		return err
	}
	if !positive && s.base.ClosedWorld {
		return fmt.Errorf("session: closed-world tasks have no explicit negatives; remove the positive label instead")
	}
	if findTuple(s.pos, t) >= 0 {
		if positive {
			return nil
		}
		return fmt.Errorf("session: tuple is labelled positive; use RelabelTuple")
	}
	if findTuple(s.neg, t) >= 0 {
		if !positive {
			return nil
		}
		return fmt.Errorf("session: tuple is labelled negative; use RelabelTuple")
	}
	if positive {
		s.pos = append(s.pos, t)
	} else {
		s.neg = append(s.neg, t)
	}
	s.memo.BumpExample(relID)
	s.deltas++
	s.dirty = true
	return nil
}

// RemoveExample drops a tuple's label. Under closed-world labelling
// removing a positive makes the tuple (implicitly) negative.
func (s *Session) RemoveExample(rel string, args ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, relID, err := s.resolve(rel, relation.Output, false, args)
	if err != nil {
		return err
	}
	if i := findTuple(s.pos, t); i >= 0 {
		s.pos = append(s.pos[:i:i], s.pos[i+1:]...)
	} else if i := findTuple(s.neg, t); i >= 0 {
		s.neg = append(s.neg[:i:i], s.neg[i+1:]...)
	} else {
		return fmt.Errorf("session: tuple is not labelled")
	}
	s.memo.BumpExample(relID)
	s.deltas++
	s.dirty = true
	return nil
}

// RelabelTuple sets a tuple's label to the given polarity, replacing
// any existing label. Under closed-world labelling, relabelling to
// negative removes the positive label (the closed world supplies the
// negative); relabelling an already-correct label is a no-op.
func (s *Session) RelabelTuple(positive bool, rel string, args ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, relID, err := s.resolve(rel, relation.Output, true, args)
	if err != nil {
		return err
	}
	pi, ni := findTuple(s.pos, t), findTuple(s.neg, t)
	switch {
	case positive && pi >= 0, !positive && s.base.ClosedWorld && pi < 0, !positive && !s.base.ClosedWorld && ni >= 0:
		return nil // already labelled as requested
	}
	if pi >= 0 {
		s.pos = append(s.pos[:pi:pi], s.pos[pi+1:]...)
	}
	if ni >= 0 {
		s.neg = append(s.neg[:ni:ni], s.neg[ni+1:]...)
	}
	if positive {
		s.pos = append(s.pos, t)
	} else if !s.base.ClosedWorld {
		s.neg = append(s.neg, t)
	}
	s.memo.BumpExample(relID)
	s.deltas++
	s.dirty = true
	return nil
}

// Solve synthesizes the current revision, reusing the session's warm
// state: the shared database (with all overlay generations) and the
// stamped memo. workers > 1 selects wave-parallel per-tuple
// explanation, exactly as in the one-shot API. Any Memo in opts is
// replaced by the session's own.
//
// When opts.Trace is set, a session-revision event summarizing the
// run (revision number, rule evaluations, memo hits) is recorded
// after the solve.
func (s *Session) Solve(ctx context.Context, opts egs.Options, workers int) (egs.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirty {
		rev, err := s.base.Revise(s.pos, s.neg)
		if err != nil {
			return egs.Result{}, err
		}
		s.cur = rev
		s.revision++
		s.dirty = false
		s.inFactDelta = false
	}
	opts.Memo = s.memo
	var res egs.Result
	var err error
	if workers > 1 {
		res, err = egs.SynthesizeParallel(ctx, s.cur, opts, workers)
	} else {
		res, err = egs.Synthesize(ctx, s.cur, opts)
	}
	if tr := opts.Trace; tr != nil && err == nil {
		tr.Record(trace.Event{
			Kind:     trace.KindSessionRevision,
			Searcher: -1,
			TS:       tr.Now(),
			N:        int64(res.Stats.RuleEvals),
			M:        int64(res.Stats.MemoHits),
			Target:   strconv.Itoa(s.revision),
		})
	}
	return res, err
}

// Task returns the task of the most recently solved revision (the
// base task before the first post-delta Solve). Callers use it to
// render results; they must not mutate it.
func (s *Session) Task() *task.Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// Revision reports how many revisions have been built by Solve; 0
// means only the base task has been (or would be) solved.
func (s *Session) Revision() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.revision
}

// Deltas reports the number of deltas applied over the session's
// lifetime.
func (s *Session) Deltas() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deltas
}

// Pending reports whether deltas have been applied since the last
// Solve (the next Solve will build a new revision).
func (s *Session) Pending() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dirty
}

// Examples reports the current labelling sizes (|O+|, |O-|).
func (s *Session) Examples() (pos, neg int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pos), len(s.neg)
}

// Facts reports the current fact count of the shared database,
// including complement/neq tuples materialized at Prepare.
func (s *Session) Facts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base.Input.Size()
}

// MemoSize reports the number of assessments cached in the session
// memo.
func (s *Session) MemoSize() int { return s.memo.Len() }

// findTuple returns the index of tuple t in ts, or -1.
func findTuple(ts []relation.Tuple, t relation.Tuple) int {
	for i := range ts {
		if ts[i].Equal(t) {
			return i
		}
	}
	return -1
}
