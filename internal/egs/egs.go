package egs

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/egs-synthesis/egs/internal/eval"
	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/relation"
	"github.com/egs-synthesis/egs/internal/task"
	"github.com/egs-synthesis/egs/internal/trace"
)

// Options configures the synthesizer.
type Options struct {
	// Priority selects p1 or p2 (Section 4.3); the default (zero
	// value) is P2, as in the paper's experiments.
	Priority Priority
	// QuickUnsat enables the Lemma 4.2 fast path: before searching a
	// cell, check whether the maximal context r_{I -> t[1..i]} is
	// consistent; if not, report unsat immediately instead of
	// exhausting the context space. The paper's tool does not use
	// this shortcut (its unsat proofs enumerate the space); we expose
	// it as an ablation.
	QuickUnsat bool
	// MaxContexts caps the number of contexts popped per cell as a
	// safety valve; 0 means unlimited.
	MaxContexts int
	// BestEffort tolerates noise in the examples (a Section 8
	// extension): positive tuples that admit no consistent
	// explanation are skipped and reported in Result.Uncovered
	// instead of failing the whole task. The returned program still
	// derives no negative tuple.
	BestEffort bool
	// AssessParallelism bounds the worker pool that assesses the
	// successors of each popped context concurrently; values <= 1 run
	// sequentially. Learned rules, unsat verdicts, and exploration
	// order are bit-identical across settings: deduplication and seq
	// assignment stay sequential in generation order, assessment
	// results are pure functions of the context, and results enter
	// the queue in generation order, so the worklist's total order
	// (score, size, seq) is unchanged. Stats are identical too: when
	// several copies of one canonical rule land in a batch and miss the
	// memo, only the first in staging order is evaluated and the rest
	// count as memo hits, exactly as in a sequential run.
	AssessParallelism int
	// Memo, when non-nil, is the shared assessment cache the run reads
	// and fills instead of a fresh per-searcher one. Incremental
	// sessions pass the same Memo across revisions (with validity
	// stamps bumped per delta) so a warm revision skips most rule
	// evaluations. Sharing a Memo never changes learned rules or unsat
	// verdicts — cached counts equal recomputed ones — but
	// Stats.RuleEvals/MemoHits shift toward hits.
	Memo *Memo
	// Trace receives structured search events: cell spans, context
	// pops, assessment batches, memo hits, pool round-trips, pooled-
	// evaluator traffic, and worklist high-water marks. nil disables
	// tracing; the hot path then pays one pointer comparison per event
	// site and never reads a clock (timestamps are taken by the
	// recorder, in internal/trace). Tracing cannot alter the search:
	// learned rules, unsat verdicts, and Stats are identical with
	// tracing on or off.
	Trace trace.Recorder
}

// Stats summarizes the work performed by one synthesis run.
type Stats struct {
	ContextsPushed int
	ContextsPopped int
	// RuleEvals counts candidate-rule evaluations actually executed;
	// MemoHits counts assessments answered from the canonical-rule
	// cache instead. Their sum is the number of admissible contexts
	// assessed.
	RuleEvals    int
	MemoHits     int
	MaxQueue     int
	CellsSolved  int
	RulesLearned int
	Duration     time.Duration
}

// Result is the outcome of a synthesis run: either a consistent UCQ,
// or a proof of unrealizability (Unsat true), per Problem 3.1.
type Result struct {
	Query query.UCQ
	Unsat bool
	// Witness documents an Unsat verdict (nil otherwise).
	Witness *UnsatWitness
	// Uncovered lists positive tuples left unexplained in
	// best-effort mode (empty otherwise).
	Uncovered []relation.Tuple
	Stats     Stats
}

// UnsatWitness is the completeness argument behind an unsat verdict:
// the positive tuple that cannot be explained, the field (slice) at
// which its search failed, and the size of the exhausted context
// space. By Theorem 4.3 / Lemma 5.1, exhausting the space proves
// that no consistent conjunctive query explains the tuple, and hence
// (Lemma 5.2) no union of conjunctive queries is consistent with the
// example. With QuickUnsat the verdict instead cites Lemma 4.2: the
// maximal context r_{I -> t} is itself inconsistent.
type UnsatWitness struct {
	// Target is the unexplainable positive tuple.
	Target relation.Tuple
	// FailedSlice is the 1-based field index whose ExplainCell
	// search failed.
	FailedSlice int
	// ContextsExhausted counts the enumeration contexts explored for
	// the failing cell (0 when the anchor constant does not occur in
	// the input at all, or when the Lemma 4.2 fast path fired).
	ContextsExhausted int
	// ViaLemma42 is true when the fast path decided the verdict.
	ViaLemma42 bool
}

// String renders the witness as a one-paragraph explanation.
func (w *UnsatWitness) String(s *relation.Schema, d *relation.Domain) string {
	target := w.Target.String(s, d)
	if w.ViaLemma42 {
		return fmt.Sprintf("unsat: the maximal context rule r_{I -> %s} derives a forbidden tuple at field %d, so by Lemma 4.2 no consistent query exists",
			target, w.FailedSlice)
	}
	if w.ContextsExhausted == 0 {
		return fmt.Sprintf("unsat: field %d of %s contains a constant that occurs in no input tuple, so no context can explain it (Theorem 4.1)",
			w.FailedSlice, target)
	}
	return fmt.Sprintf("unsat: all %d enumeration contexts reachable for field %d of %s were exhausted without finding a consistent rule, so by Theorem 4.3 no consistent query exists",
		w.ContextsExhausted, w.FailedSlice, target)
}

// ErrBudgetExceeded reports that MaxContexts was exhausted before the
// search completed; no conclusion about realizability follows.
var ErrBudgetExceeded = errors.New("egs: context budget exceeded")

// Synthesize runs the EGS algorithm (Algorithm 3) on a prepared task:
// it returns a union of conjunctive queries consistent with the
// task's example, or Unsat if the completeness argument of Theorem
// 4.3 / Lemma 5.2 proves that none exists. The context ctx bounds the
// search (cancellation and deadlines are honoured between context
// expansions).
func Synthesize(ctx context.Context, t *task.Task, opts Options) (Result, error) {
	if err := t.Prepare(); err != nil {
		return Result{}, err
	}
	//lint:ignore egslint/nodetsource wall-clock start feeds only Stats.Duration, never a search decision
	start := time.Now()
	s := newSearcher(ctx, t.Example(), opts)
	defer s.close()

	// Algorithm 3: explain each still-unexplained positive tuple with
	// a conjunctive query, removing everything the new rule derives.
	unexplained := append([]relation.Tuple(nil), t.Pos...)
	var rules []query.Rule
	var uncovered []relation.Tuple
	for len(unexplained) > 0 {
		target := unexplained[0]
		ids, ok, err := s.explainTuple(target)
		if err != nil {
			return Result{Stats: s.statsWith(start)}, err
		}
		if !ok {
			if opts.BestEffort {
				uncovered = append(uncovered, target)
				unexplained = unexplained[1:]
				continue
			}
			return Result{Unsat: true, Witness: s.failure, Stats: s.statsWith(start)}, nil
		}
		rule, admissible := generalize(s.ex.DB, ids, target, len(target.Args))
		if !admissible {
			// Cannot happen for a context returned by explainTuple;
			// guard against future refactors.
			return Result{Stats: s.statsWith(start)}, fmt.Errorf("egs: internal error: inadmissible explaining context for %s",
				target.String(t.Schema, t.Domain))
		}
		outs := eval.RuleOutputIDs(rule, s.ex.DB)
		var still []relation.Tuple
		for _, u := range unexplained {
			if !outs.Has(s.ex.DB.InternTuple(u)) {
				still = append(still, u)
			}
		}
		if len(still) == len(unexplained) {
			return Result{Stats: s.statsWith(start)}, fmt.Errorf("egs: internal error: learned rule does not derive its target %s",
				target.String(t.Schema, t.Domain))
		}
		unexplained = still
		rules = append(rules, rule)
	}
	s.stats.RulesLearned = len(rules)
	return Result{
		Query:     query.UCQ{Rules: rules},
		Uncovered: uncovered,
		Stats:     s.statsWith(start),
	}, nil
}

type searcher struct {
	ctx   context.Context
	ex    *task.Example
	opts  Options
	stats Stats
	seq   int
	// id names this searcher in traces; SynthesizeParallel assigns
	// distinct ids so per-searcher trace shards merge
	// deterministically.
	id int32
	// tr is the trace sink (nil = tracing off). Cells re-read it into
	// a local once, so untraced searches pay one pointer comparison
	// per event site.
	tr trace.Recorder
	// evalTraced records that this searcher enabled the pooled-
	// evaluator counters and must disable them on close.
	evalTraced bool
	// failure records why the most recent explainCell exhausted,
	// for unsat witnesses.
	failure *UnsatWitness

	// asr memoizes rule evaluations by canonical key across the whole
	// run; seqSlot is the scratch of sequential assessment. pool (nil
	// when AssessParallelism <= 1) fans batches of assessments out to
	// workers; slots (one per batch position, each with its own
	// scratch, reused across batches) and firstMiss are the batch
	// scratch of assessBatch.
	asr       assessor
	seqSlot   assessSlot
	pool      *assessPool
	slots     []assessSlot
	firstMiss map[string]int
	// arena and slab own the memory of every context generated by
	// this searcher; visited and pending are per-cell scratch reused
	// across cells.
	arena   idArena
	slab    ectxSlab
	visited relation.HashSet64
	pending []*ectx
}

func newSearcher(ctx context.Context, ex *task.Example, opts Options) *searcher {
	s := &searcher{ctx: ctx, ex: ex, opts: opts, tr: opts.Trace}
	s.asr.ex = ex
	if opts.Memo != nil {
		s.asr.memo = opts.Memo
	} else {
		s.asr.memo = NewMemo()
	}
	if opts.AssessParallelism > 1 {
		s.pool = newAssessPool(opts.AssessParallelism)
	}
	if s.tr != nil {
		eval.EnablePoolTracing()
		s.evalTraced = true
	}
	return s
}

// close releases the searcher's worker pool, if any, and retires its
// tracing hooks. The searcher must not be used afterwards.
func (s *searcher) close() {
	if s.evalTraced {
		eval.DisablePoolTracing()
		s.evalTraced = false
	}
	if s.pool != nil {
		s.pool.close()
		s.pool = nil
	}
}

func (s *searcher) statsWith(start time.Time) Stats {
	st := s.stats
	//lint:ignore egslint/nodetsource Duration is reporting-only; excluded from determinism comparisons
	st.Duration = time.Since(start)
	return st
}

// explainTuple implements Algorithm 2: explain the fields of the
// target tuple one at a time, growing the context C_1 ⊆ ... ⊆ C_k.
// It returns the final context and ok=false when some cell is
// unrealizable.
func (s *searcher) explainTuple(target relation.Tuple) ([]relation.TupleID, bool, error) {
	var base []relation.TupleID
	for i := 1; i <= len(target.Args); i++ {
		next, ok, err := s.explainCell(base, target, i)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			if s.failure == nil {
				s.failure = &UnsatWitness{}
			}
			s.failure.Target = target
			s.failure.FailedSlice = i
			return nil, false, nil
		}
		base = next
	}
	return base, true, nil
}

// explainCell implements Algorithm 1 (with the Section 5.1
// generalization): starting from the prior slice's context, find a
// context whose generalized rule derives no forbidden i-slice.
func (s *searcher) explainCell(base []relation.TupleID, target relation.Tuple, i int) ([]relation.TupleID, bool, error) {
	cs, err := s.explainCellMulti(base, target, i, 1)
	if err != nil || len(cs) == 0 {
		return nil, false, err
	}
	return cs[0], true, nil
}

// explainCellMulti is explainCell generalized to collect up to k
// distinct consistent contexts, in priority order. It powers the
// Alternatives API: the search simply keeps popping after the first
// success instead of returning.
//
// The inner loop is organized as stage/flush: candidate successors
// are deduplicated (by 64-bit id-set fingerprint, computed without
// materializing the candidate) and seq-stamped sequentially in
// generation order, then the batch is assessed — in parallel when the
// searcher has a pool — and pushed in staging order. Assessment is a
// pure function of the context, so the queue's contents and total
// order (score, size, seq) are identical to a fully sequential run.
func (s *searcher) explainCellMulti(base []relation.TupleID, target relation.Tuple, i, k int) ([][]relation.TupleID, error) {
	ex := s.ex
	db := ex.DB
	arity := len(target.Args)
	anchor := target.Args[i-1]

	p := cellParams{target: target, i: i}
	p.totalForbidden, p.countKnown = ex.CountForbidden(target.Rel, i, arity)

	if s.opts.QuickUnsat {
		// Lemma 4.2 fast path: the maximal context base ∪ I. Since
		// base ⊆ I this is just all of I.
		probe := &ectx{ids: db.AllIDs()}
		s.asr.assess(&s.seqSlot, probe, &p)
		if !probe.consistent {
			s.failure = &UnsatWitness{ViaLemma42: true}
			return nil, nil
		}
	}

	// visited holds fingerprints of every id set generated for this
	// cell (distinct cells may legitimately regenerate the same set,
	// so it resets here). A fingerprint collision would silently drop
	// a context; at 2^-64 per pair that is negligible against the
	// ~2^17 contexts of the largest benchmarks, and it lets duplicate
	// candidates be rejected without allocating their id sets.
	s.visited.Reset()
	queue := newCtxQueue(s.opts.Priority)
	pending := s.pending[:0]
	// Every exit below — success, queue exhaustion, cancellation,
	// budget errors — must hand the staged-batch buffer back to the
	// searcher, or the next cell on a reused searcher re-slices a
	// buffer whose grown capacity was lost (and whose tail still pins
	// stale contexts). Centralized here so new exit paths cannot
	// reintroduce the leak.
	defer func() { s.pending = pending[:0] }()

	// Tracing is resolved once per cell; with tr == nil every event
	// site below is a single pointer comparison and no clock is read.
	tr := s.tr
	popped := 0
	staged := 0
	if tr != nil {
		cellStart := tr.Now()
		rt0, fresh0 := eval.PoolCounters()
		batch0, bt0, _ := eval.StrategyCounters()
		tr.Record(trace.Event{Kind: trace.KindCellStart, Searcher: s.id, Slice: int32(i), TS: cellStart, Target: target.String(db.Schema, db.Domain)})
		defer func() {
			end := tr.Now()
			rt, fresh := eval.PoolCounters()
			batch, bt, frontierHW := eval.StrategyCounters()
			tr.Record(trace.Event{Kind: trace.KindEvalPool, Searcher: s.id, Slice: int32(i), TS: end, N: int64(rt - rt0), M: int64(fresh - fresh0)})
			tr.Record(trace.Event{Kind: trace.KindEvalStrategy, Searcher: s.id, Slice: int32(i), TS: end,
				N: int64(batch - batch0), M: int64(bt - bt0), Target: strconv.FormatUint(frontierHW, 10)})
			tr.Record(trace.Event{Kind: trace.KindCellEnd, Searcher: s.id, Slice: int32(i), TS: cellStart, Dur: end - cellStart, N: int64(popped), M: int64(staged), Target: target.String(db.Schema, db.Domain)})
		}()
	}

	// stage admits a deduplicated candidate (already arena-allocated)
	// into the current batch, stamping its seq in generation order.
	stage := func(ids []relation.TupleID) {
		s.seq++
		staged++
		c := s.slab.alloc()
		c.ids, c.seq = ids, s.seq
		pending = append(pending, c)
	}
	// flush assesses the staged batch and pushes results in staging
	// order. Stats are merged here, on the searcher's goroutine —
	// which also makes the trace events below deterministic: evals
	// and memo verdicts are read after the pool barrier, so the shard
	// records the same events in the same order at any parallelism.
	flush := func() {
		if len(pending) == 0 {
			return
		}
		var batchStart int64
		var preEvals, preHits int
		if tr != nil {
			batchStart = tr.Now()
			preEvals, preHits = s.stats.RuleEvals, s.stats.MemoHits
		}
		pooled := s.pool != nil && len(pending) > 1
		if pooled {
			s.assessBatch(pending, &p)
		} else {
			for _, c := range pending {
				s.asr.assess(&s.seqSlot, c, &p)
			}
		}
		var assessed int64
		if tr != nil {
			assessed = tr.Now()
		}
		for _, c := range pending {
			s.stats.RuleEvals += int(c.evals)
			if c.memoHit {
				s.stats.MemoHits++
			}
			queue.push(c)
		}
		s.stats.ContextsPushed += len(pending)
		if queue.Len() > s.stats.MaxQueue {
			s.stats.MaxQueue = queue.Len()
			if tr != nil {
				tr.Record(trace.Event{Kind: trace.KindQueueHighWater, Searcher: s.id, Slice: int32(i), TS: assessed, N: int64(queue.Len())})
			}
		}
		if tr != nil {
			if pooled {
				tr.Record(trace.Event{Kind: trace.KindPoolRoundTrip, Searcher: s.id, Slice: int32(i), TS: batchStart, Dur: assessed - batchStart, N: int64(len(pending))})
			}
			tr.Record(trace.Event{Kind: trace.KindAssessBatch, Searcher: s.id, Slice: int32(i), TS: batchStart, Dur: assessed - batchStart, N: int64(s.stats.RuleEvals - preEvals), M: int64(len(pending))})
			if hits := s.stats.MemoHits - preHits; hits > 0 {
				tr.Record(trace.Event{Kind: trace.KindMemoHit, Searcher: s.id, Slice: int32(i), TS: assessed, N: int64(hits)})
			}
		}
		pending = pending[:0]
	}

	// Initialization (Equation 6 for i = 1, Equation 8 for i > 1):
	// extend the prior context with each tuple containing the
	// anchor constant t[i]. When the anchor already occurs in the
	// prior context, the prior context itself is admissible and is
	// seeded too (this covers targets with repeated constants such
	// as sibling(Kopa, Kopa)).
	if len(base) > 0 {
		for _, c := range db.ConstantsOf(base) {
			if c == anchor {
				if s.visited.Add(relation.IDSetHash(base)) {
					stage(s.arena.copy(base))
				}
				break
			}
		}
	}
	for _, id := range db.Mentioning(anchor) {
		if containsID(base, id) {
			continue
		}
		if s.visited.Add(relation.IDSetHashExtend(base, id)) {
			stage(s.arena.extend(base, id))
		}
	}
	flush()

	var found [][]relation.TupleID
	for queue.Len() > 0 {
		if popped%64 == 0 {
			select {
			case <-s.ctx.Done():
				return nil, s.ctx.Err()
			default:
			}
		}
		cur := queue.pop()
		popped++
		s.stats.ContextsPopped++
		if tr != nil {
			tr.Record(trace.Event{Kind: trace.KindPop, Searcher: s.id, Slice: int32(i), TS: tr.Now(), N: int64(cur.size()), M: int64(queue.Len())})
		}
		if s.opts.MaxContexts > 0 && popped > s.opts.MaxContexts {
			return nil, ErrBudgetExceeded
		}
		if cur.consistent {
			if len(found) == 0 {
				s.stats.CellsSolved++
			}
			found = append(found, cur.ids)
			if len(found) >= k {
				return found, nil
			}
			continue
		}
		// Step 3(c): successors are the input tuples adjacent to the
		// context in the co-occurrence graph — those sharing at
		// least one constant with C. The whole batch is staged before
		// flushing, so one pop costs at most one pool round-trip.
		for _, c := range db.ConstantsOf(cur.ids) {
			for _, id := range db.Mentioning(c) {
				if containsID(cur.ids, id) {
					continue
				}
				if s.visited.Add(relation.IDSetHashExtend(cur.ids, id)) {
					stage(s.arena.extend(cur.ids, id))
				}
			}
		}
		flush()
	}
	// Queue exhausted: by Theorem 4.3 / Lemma 5.1, fewer than k
	// explaining contexts exist; in particular an empty result proves
	// the cell unrealizable.
	if len(found) == 0 {
		s.failure = &UnsatWitness{ContextsExhausted: popped}
	}
	return found, nil
}

// assessBatch assesses a staged batch on the pool and yields the
// verdicts and counters of a sequential pass. Canonical keys and memo
// lookups run in parallel first, each slot in its own scratch. Then,
// sequentially in staging order, every later miss sharing a key with
// an earlier miss of the batch becomes a memo hit on it — a sequential
// pass would find the first one's stored result. Only the remaining
// unique misses are generalized and evaluated, in parallel. The
// counters are thus a pure function of the input, and no join runs
// twice.
func (s *searcher) assessBatch(batch []*ectx, p *cellParams) {
	for len(s.slots) < len(batch) {
		s.slots = append(s.slots, assessSlot{})
	}
	slots := s.slots[:len(batch)]
	for i, c := range batch {
		slots[i].reset(c)
	}
	s.runStage(slots, p, false)
	if s.firstMiss == nil {
		s.firstMiss = make(map[string]int)
	}
	for i := range slots {
		sl := &slots[i]
		if sl.state != slotMiss {
			continue
		}
		if j, ok := s.firstMiss[string(sl.key)]; ok {
			sl.state, sl.first = slotDup, j
			continue
		}
		sl.memoKey = string(sl.key)
		s.firstMiss[sl.memoKey] = i
	}
	clear(s.firstMiss)
	s.runStage(slots, p, true)
	for i := range slots {
		sl := &slots[i]
		if sl.state == slotDup {
			sl.derived = slots[sl.first].derived
		}
		sl.finish(p)
	}
	for i := range slots {
		slots[i].reset(nil) // drop the context and key; keep the scratch
	}
}

// runStage runs one assessment stage on the pool and waits for it:
// prepare for every slot, or evaluate for the unique misses.
func (s *searcher) runStage(slots []assessSlot, p *cellParams, evaluate bool) {
	var wg sync.WaitGroup
	for i := range slots {
		if evaluate && slots[i].state != slotMiss {
			continue
		}
		wg.Add(1)
		s.pool.submit(assessJob{sl: &slots[i], p: p, a: &s.asr, evaluate: evaluate, wg: &wg})
	}
	wg.Wait()
}

// Alternatives synthesizes up to k distinct conjunctive queries,
// each consistent with (I, {target}, O-), in the priority order the
// search discovers them. The leading fields of target are explained
// as in Algorithm 2; the final cell's worklist is then drained until
// k explanations accumulate. Alternatives underpin disambiguation
// workflows: when several queries explain the data, their differing
// outputs suggest which example to label next.
func Alternatives(ctx context.Context, t *task.Task, target relation.Tuple, k int, opts Options) ([]query.Rule, error) {
	if err := t.Prepare(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, nil
	}
	s := newSearcher(ctx, t.Example(), opts)
	defer s.close()
	var base []relation.TupleID
	arity := len(target.Args)
	for i := 1; i < arity; i++ {
		next, ok, err := s.explainCell(base, target, i)
		if err != nil || !ok {
			return nil, err
		}
		base = next
	}
	contexts, err := s.explainCellMulti(base, target, arity, k)
	if err != nil {
		return nil, err
	}
	var rules []query.Rule
	seen := make(map[string]bool)
	for _, ids := range contexts {
		rule, ok := generalize(s.ex.DB, ids, target, arity)
		if !ok {
			continue
		}
		key := rule.CanonicalKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		rules = append(rules, rule)
	}
	return rules, nil
}

// ExplainOne exposes the single-tuple ExplainTuple procedure for
// examples and tools: it synthesizes one conjunctive query explaining
// target, or reports unsat.
func ExplainOne(ctx context.Context, t *task.Task, target relation.Tuple, opts Options) (query.Rule, bool, error) {
	if err := t.Prepare(); err != nil {
		return query.Rule{}, false, err
	}
	s := newSearcher(ctx, t.Example(), opts)
	defer s.close()
	ids, ok, err := s.explainTuple(target)
	if err != nil || !ok {
		return query.Rule{}, false, err
	}
	rule, _ := generalize(s.ex.DB, ids, target, len(target.Args))
	return rule, true, nil
}
