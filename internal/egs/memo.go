package egs

import (
	"slices"
	"sync"

	"github.com/egs-synthesis/egs/internal/relation"
	"github.com/egs-synthesis/egs/internal/task"
)

// Memo caches candidate-rule assessments — the canonical byte image
// of the rule (query.Canon) to the number of derived forbidden
// i-slices — with validity stamps so a memo can outlive the task
// revision it was built on. A fresh Memo behind a single synthesis
// run behaves exactly like a per-searcher memo; an incremental
// session passes one Memo (Options.Memo) across revisions and tells it
// which inputs each delta touched:
//
//   - BumpFact(rel) after inserting facts into rel: every entry whose
//     rule body reads rel re-evaluates (its join output may change).
//   - BumpExample(rel) after an example delta on output rel: entries
//     with heads over rel are invalidated — except full-arity entries,
//     which keep the rule's derived output ids and revalidate by
//     re-probing the new labelling, skipping the join entirely.
//   - BumpDomain() when the data domain grows: under explicit
//     labelling the forbidden sets of proper slices count completions
//     over the domain, so those entries must not survive. Domain
//     epochs fold into the example stamp, which conservatively also
//     re-labels closed-world entries.
//
// Soundness: a stored count is a pure function of (canonical rule,
// extents of the body relations, labelling of the head relation).
// The fact stamp sums the epochs of the body relations and the
// example stamp sums the head relation's example epoch with the
// domain epoch; epochs are monotone non-decreasing, so stamp equality
// implies every summand is unchanged and the cached count is exact.
//
// A Memo is safe for concurrent use. Within one searcher no two
// workers ever evaluate the same key: a parallel batch looks every key
// up first and evaluates only its first miss per key (see
// searcher.assessBatch). Searchers that share a Memo may still race on
// a key; both store identical values (see the assessor's soundness
// note), so such a race costs one redundant evaluation and shifts
// Stats between RuleEvals and MemoHits.
type Memo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry

	// Epochs are lazily allocated: a memo that is never bumped (every
	// cold run) keeps both maps nil and skips stamp computation
	// entirely, so one-shot synthesis pays nothing for the machinery.
	factEpoch   map[relation.RelID]uint64
	exEpoch     map[relation.RelID]uint64
	domainEpoch uint64
}

type memoEntry struct {
	derived   int
	factStamp uint64
	exStamp   uint64
	// outs records the full-arity rule's derived output ids, in
	// emission order with multiplicity, enabling revalidation after a
	// pure example delta. nil for proper-slice entries (slices have no
	// ids) and for rules whose output exceeded memoOutsCap.
	outs []relation.TupleID
}

// memoOutsCap bounds the per-entry output-id storage. Rules deriving
// more tuples than this fall back to full re-evaluation when their
// example stamp moves; the bound keeps session memos from pinning
// whole join outputs for every candidate ever assessed.
const memoOutsCap = 4096

// NewMemo returns an empty memo ready for sharing across runs.
func NewMemo() *Memo { return &Memo{} }

// BumpFact records that facts were added to relation r.
func (m *Memo) BumpFact(r relation.RelID) {
	m.mu.Lock()
	if m.factEpoch == nil {
		m.factEpoch = make(map[relation.RelID]uint64)
	}
	m.factEpoch[r]++
	m.mu.Unlock()
}

// BumpExample records an example delta (add, remove, relabel) on
// output relation r.
func (m *Memo) BumpExample(r relation.RelID) {
	m.mu.Lock()
	if m.exEpoch == nil {
		m.exEpoch = make(map[relation.RelID]uint64)
	}
	m.exEpoch[r]++
	m.mu.Unlock()
}

// BumpDomain records that the data domain grew (a delta introduced a
// constant not seen before).
func (m *Memo) BumpDomain() {
	m.mu.Lock()
	m.domainEpoch++
	m.mu.Unlock()
}

// stamps computes the validity stamps of an entry whose rule has body
// relations body and head relation head: the sum of the body
// relations' fact epochs (each distinct relation counted once) and the
// head relation's example epoch plus the domain epoch. Callers must
// hold m.mu.
func (m *Memo) stamps(body []relation.RelID, head relation.RelID) (factStamp, exStamp uint64) {
	if m.factEpoch != nil {
		for i, r := range body {
			if !slices.Contains(body[:i], r) {
				factStamp += m.factEpoch[r]
			}
		}
	}
	if m.exEpoch != nil {
		exStamp = m.exEpoch[head]
	}
	return factStamp, exStamp + m.domainEpoch
}

// lookup resolves the canonical image key of a rule with body
// relations body and head relation head. hit reports that the cached
// (or revalidated) count is valid for the current revision; on a miss
// the caller must evaluate the rule and store the result. The lookup
// does not allocate. Revalidation — fact stamp current, example stamp
// stale, output ids on hand — re-probes the stored ids against the
// example's current labelling, which costs one bitset probe per
// derived tuple instead of a join.
func (m *Memo) lookup(key []byte, body []relation.RelID, head relation.RelID, ex *task.Example) (derived int, hit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[string(key)]
	if !ok {
		return 0, false
	}
	factStamp, exStamp := m.stamps(body, head)
	if e.factStamp != factStamp {
		return 0, false
	}
	if e.exStamp != exStamp {
		if e.outs == nil {
			return 0, false
		}
		derived = 0
		for _, id := range e.outs {
			if ex.IsNegativeID(id) {
				derived++
			}
		}
		e.derived, e.exStamp = derived, exStamp
		return derived, true
	}
	return e.derived, true
}

// store records an evaluated assessment under key, the string form of
// the rule's canonical image. outs may be nil (proper slice, or output
// too large to retain).
func (m *Memo) store(key string, body []relation.RelID, head relation.RelID, derived int, outs []relation.TupleID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil {
		m.entries = make(map[string]*memoEntry)
	}
	factStamp, exStamp := m.stamps(body, head)
	m.entries[key] = &memoEntry{
		derived:   derived,
		factStamp: factStamp,
		exStamp:   exStamp,
		outs:      outs,
	}
}

// Len reports the number of cached assessments.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
