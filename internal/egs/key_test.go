package egs

import (
	"sort"
	"strings"
	"testing"

	"github.com/egs-synthesis/egs/internal/datagen/family"
	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/relation"
	"github.com/egs-synthesis/egs/internal/task"
)

// keyTestTasks loads the tasks the key oracle runs on: two authored
// benchmarks and one generated star-join family instance.
func keyTestTasks(t *testing.T) map[string]*task.Task {
	t.Helper()
	tasks := map[string]*task.Task{}
	for name, path := range map[string]string{
		"traffic":     "../../testdata/benchmarks/knowledge-discovery/traffic.task",
		"grandparent": "../../testdata/benchmarks/knowledge-discovery/grandparent.task",
	} {
		tk, err := task.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		tasks[name] = tk
	}
	inst, err := family.Generate(family.Spec{Class: "star", Domain: 12, Density: 1.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := task.Parse(strings.NewReader(inst.Content))
	if err != nil {
		t.Fatal(err)
	}
	tasks["fam-star-d12"] = tk
	for _, tk := range tasks {
		if err := tk.Prepare(); err != nil {
			t.Fatal(err)
		}
	}
	return tasks
}

// keyTestContexts enumerates sorted contexts the way the search grows
// them — seeded by the tuples mentioning the cell's anchor, extended
// by co-occurring tuples — up to three tuples and a fixed budget, plus
// singletons of arbitrary facts so inadmissible contexts occur too.
func keyTestContexts(db *relation.Database, anchor relation.Const) [][]relation.TupleID {
	var arena idArena
	seen := relation.HashSet64{}
	var out, level [][]relation.TupleID
	add := func(ids []relation.TupleID) {
		if len(out) < 600 && seen.Add(relation.IDSetHash(ids)) {
			out = append(out, ids)
			level = append(level, ids)
		}
	}
	for _, id := range db.Mentioning(anchor) {
		add(arena.copy([]relation.TupleID{id}))
	}
	for _, id := range db.AllIDs()[:min(20, db.Size())] {
		add(arena.copy([]relation.TupleID{id}))
	}
	for size := 1; size < 3; size++ {
		prev := level
		level = nil
		for _, ids := range prev {
			for _, c := range db.ConstantsOf(ids) {
				for _, id := range db.Mentioning(c) {
					if !containsID(ids, id) {
						add(arena.extend(ids, id))
					}
				}
			}
		}
	}
	return out
}

// TestKeyImageMatchesCanonicalKey: for contexts of traffic,
// grandparent and fam-star-d12, the memo key prepare builds in scratch
// is equal for two contexts exactly when their generalized rules have
// equal CanonicalKeys, and prepare's admissibility verdict is
// generalize's.
func TestKeyImageMatchesCanonicalKey(t *testing.T) {
	for name, tk := range keyTestTasks(t) {
		db := tk.Example().DB
		var scr keyScratch
		byImage := map[string]string{}
		byKey := map[string]string{}
		admissible, inadmissible := 0, 0
		for _, target := range tk.Pos[:min(3, len(tk.Pos))] {
			for i := 1; i <= len(target.Args); i++ {
				for _, ids := range keyTestContexts(db, target.Args[i-1]) {
					img, ok := scr.load(db, ids, target, i)
					rule, gok := generalize(db, ids, target, i)
					if ok != gok {
						t.Fatalf("%s: context %v, slice %d: prepare admissible=%v, generalize %v", name, ids, i, ok, gok)
					}
					if !ok {
						inadmissible++
						continue
					}
					admissible++
					if want := canonImage(rule); string(img) != string(want) {
						t.Fatalf("%s: context %v: image %x, generalized rule's %x", name, ids, img, want)
					}
					key := rule.CanonicalKey()
					if k, seen := byImage[string(img)]; seen && k != key {
						t.Fatalf("%s: one image for keys %q and %q", name, k, key)
					}
					if im, seen := byKey[key]; seen && im != string(img) {
						t.Fatalf("%s: key %q has two images %x and %x", name, key, im, img)
					}
					byImage[string(img)], byKey[key] = key, string(img)
				}
			}
		}
		t.Logf("%s: %d admissible contexts, %d distinct keys, %d inadmissible", name, admissible, len(byKey), inadmissible)
		if admissible < 100 || inadmissible == 0 || len(byKey) >= admissible {
			t.Errorf("%s: weak coverage: %d admissible (%d distinct keys), %d inadmissible",
				name, admissible, len(byKey), inadmissible)
		}
	}
}

// canonImage is the canonical image of a built rule.
func canonImage(rule query.Rule) []byte {
	var c query.Canon
	c.Load(rule)
	return c.Canonicalize()
}

// TestKeyScratchManyConstants: a context with more constants than a
// linear scan serves (the Lemma 4.2 probe of all of I) gets the same
// variables, and so the same image, as generalize gives it.
func TestKeyScratchManyConstants(t *testing.T) {
	inst, err := family.Generate(family.Spec{Class: "chain", Domain: 96, Density: 1.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := task.Parse(strings.NewReader(inst.Content))
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Prepare(); err != nil {
		t.Fatal(err)
	}
	db := tk.Example().DB
	ids := db.AllIDs()
	var scr keyScratch
	for _, target := range tk.Pos[:min(3, len(tk.Pos))] {
		img, ok := scr.load(db, ids, target, len(target.Args))
		rule, gok := generalize(db, ids, target, len(target.Args))
		if ok != gok || !ok {
			t.Fatalf("probe admissible: prepare %v, generalize %v", ok, gok)
		}
		if scr.byConst == nil {
			t.Fatalf("%d constants stayed on the linear scan", len(scr.consts))
		}
		if want := canonImage(rule); string(img) != string(want) {
			t.Fatalf("probe image %x, generalized rule's %x", img, want)
		}
	}
}

// TestMemoHitAssessDoesNotAllocate pins the sequential hot path: once
// a slot's scratch has grown, assessing a context the memo already
// holds allocates nothing.
func TestMemoHitAssessDoesNotAllocate(t *testing.T) {
	tk := mustTask(t, trafficSrc)
	if err := tk.Prepare(); err != nil {
		t.Fatal(err)
	}
	ex := tk.Example()
	crashes, _ := tk.Schema.Lookup("Crashes")
	whitehall, _ := tk.Domain.Lookup("Whitehall")
	ids := append([]relation.TupleID(nil), ex.DB.Mentioning(whitehall)...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ids = ids[:3]

	a := assessor{ex: ex, memo: NewMemo()}
	p := cellParams{target: relation.NewTuple(crashes, whitehall), i: 1}
	p.totalForbidden, p.countKnown = ex.CountForbidden(crashes, 1, 1)
	var sl assessSlot
	c := &ectx{ids: ids}
	a.assess(&sl, c, &p) // miss: evaluates and stores
	if c.evals != 1 {
		t.Fatalf("first assessment evals = %d, want 1", c.evals)
	}
	c = &ectx{ids: ids}
	a.assess(&sl, c, &p)
	if !c.memoHit {
		t.Fatal("second assessment missed the memo")
	}
	if n := testing.AllocsPerRun(100, func() { a.assess(&sl, c, &p) }); n != 0 {
		t.Errorf("memo-hit assessment of a %d-literal context allocates %.1f times", len(ids), n)
	}
}
