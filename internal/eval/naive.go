package eval

import (
	"sort"

	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/relation"
)

// EvalRuleNaive is a reference evaluator used for differential
// testing of EvalRule. It performs an unoptimized nested-loop join in
// the body's given literal order, scanning full relation extents with
// no indexes and no planning, and it deduplicates by sorting, so it
// shares no code with the join kernels or the identity index. Its
// output — the distinct derived tuples in Compare order — must
// coincide with EvalRule's on every input.
func EvalRuleNaive(r query.Rule, db *relation.Database) []relation.Tuple {
	var out []relation.Tuple
	n := r.NumVars()
	val := make([]relation.Const, n)
	bound := make([]bool, n)

	var rec func(i int)
	rec = func(i int) {
		if i == len(r.Body) {
			args := make([]relation.Const, len(r.Head.Args))
			for j, t := range r.Head.Args {
				if t.IsConst {
					args[j] = t.Const
					continue
				}
				if !bound[t.Var] {
					return // unsafe rule derives nothing
				}
				args[j] = val[t.Var]
			}
			out = append(out, relation.Tuple{Rel: r.Head.Rel, Args: args})
			return
		}
		lit := r.Body[i]
		for _, id := range db.Extent(lit.Rel) {
			tup := db.Tuple(id)
			if len(tup.Args) != len(lit.Args) {
				continue
			}
			var newly []query.Var
			ok := true
			for j, t := range lit.Args {
				c := tup.Args[j]
				if t.IsConst {
					if t.Const != c {
						ok = false
						break
					}
					continue
				}
				v := int(t.Var)
				if bound[v] {
					if val[v] != c {
						ok = false
						break
					}
					continue
				}
				bound[v] = true
				val[v] = c
				newly = append(newly, t.Var)
			}
			if ok {
				rec(i + 1)
			}
			for _, v := range newly {
				bound[v] = false
			}
		}
	}
	rec(0)
	return sortedUnique(out)
}

// UCQOutputsNaive is the reference UCQ evaluator: the distinct
// tuples derived by any rule of q, in Compare order.
func UCQOutputsNaive(q query.UCQ, db *relation.Database) []relation.Tuple {
	var out []relation.Tuple
	for _, r := range q.Rules {
		out = append(out, EvalRuleNaive(r, db)...)
	}
	return sortedUnique(out)
}

// sortedUnique sorts ts in Compare order and drops repeats in place.
func sortedUnique(ts []relation.Tuple) []relation.Tuple {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || t.Compare(ts[i-1]) != 0 {
			out = append(out, t)
		}
	}
	return out
}
