package relation

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestDomainIntern(t *testing.T) {
	d := NewDomain()
	a := d.Intern("alpha")
	b := d.Intern("beta")
	if a == b {
		t.Fatalf("distinct names interned to same id %d", a)
	}
	if got := d.Intern("alpha"); got != a {
		t.Errorf("re-intern alpha = %d, want %d", got, a)
	}
	if d.Size() != 2 {
		t.Errorf("Size = %d, want 2", d.Size())
	}
	if d.Name(a) != "alpha" || d.Name(b) != "beta" {
		t.Errorf("Name round-trip failed: %q %q", d.Name(a), d.Name(b))
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Error("Lookup(gamma) = ok, want missing")
	}
	if c, ok := d.Lookup("beta"); !ok || c != b {
		t.Errorf("Lookup(beta) = %d,%v want %d,true", c, ok, b)
	}
}

func TestDomainNameOutOfRange(t *testing.T) {
	d := NewDomain()
	if got := d.Name(Const(42)); got != "<const:42>" {
		t.Errorf("Name(42) = %q", got)
	}
}

func TestDomainEnumerations(t *testing.T) {
	d := NewDomain()
	d.Intern("zeta")
	d.Intern("alpha")
	cs := d.Constants()
	if len(cs) != 2 || cs[0] != 0 || cs[1] != 1 {
		t.Errorf("Constants = %v", cs)
	}
	ns := d.Names()
	if len(ns) != 2 || ns[0] != "alpha" || ns[1] != "zeta" {
		t.Errorf("Names = %v (want lexicographic)", ns)
	}
}

func TestKindString(t *testing.T) {
	if Input.String() != "input" || Output.String() != "output" {
		t.Error("Kind strings wrong")
	}
	if Kind(7).String() != "Kind(7)" {
		t.Errorf("unknown Kind = %q", Kind(7).String())
	}
}

func TestSchemaInfoOutOfRange(t *testing.T) {
	s := NewSchema()
	if got := s.Info(RelID(9)).Name; got != "<rel:9>" {
		t.Errorf("Info(9).Name = %q", got)
	}
	if s.Arity(RelID(9)) != 0 {
		t.Error("out-of-range arity nonzero")
	}
}

func TestMustDeclarePanics(t *testing.T) {
	s := NewSchema()
	s.MustDeclare("p", 1, Input)
	defer func() {
		if recover() == nil {
			t.Error("conflicting MustDeclare did not panic")
		}
	}()
	s.MustDeclare("p", 2, Input)
}

func TestDatabaseAllIDsAndAll(t *testing.T) {
	db, _, _, _ := buildTestDB(t)
	ids := db.AllIDs()
	all := db.All()
	if len(ids) != db.Size() || len(all) != db.Size() {
		t.Fatalf("AllIDs=%d All=%d Size=%d", len(ids), len(all), db.Size())
	}
	for i, id := range ids {
		if !db.Tuple(id).Equal(all[i]) {
			t.Fatal("AllIDs order disagrees with All")
		}
	}
	// All returns a copy.
	all[0].Args[0] = Const(99)
	if db.Tuple(0).Args[0] == Const(99) {
		t.Error("All shares argument storage with the database")
	}
}

func TestSchemaDeclare(t *testing.T) {
	s := NewSchema()
	edge, err := s.Declare("edge", 2, Input)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Declare("edge", 2, Input); err != nil {
		t.Errorf("identical redeclare errored: %v", err)
	}
	if _, err := s.Declare("edge", 3, Input); err == nil {
		t.Error("arity-conflicting redeclare did not error")
	}
	if _, err := s.Declare("edge", 2, Output); err == nil {
		t.Error("kind-conflicting redeclare did not error")
	}
	if _, err := s.Declare("zero", 0, Input); err == nil {
		t.Error("zero arity did not error")
	}
	if s.Arity(edge) != 2 || s.Name(edge) != "edge" {
		t.Errorf("Info mismatch: %+v", s.Info(edge))
	}
}

func TestSchemaRelationsByKind(t *testing.T) {
	s := NewSchema()
	s.MustDeclare("b", 1, Input)
	s.MustDeclare("a", 1, Input)
	s.MustDeclare("out", 1, Output)
	in := s.Relations(Input)
	if len(in) != 2 || s.Name(in[0]) != "a" || s.Name(in[1]) != "b" {
		t.Errorf("Relations(Input) = %v", in)
	}
	out := s.Relations(Output)
	if len(out) != 1 || s.Name(out[0]) != "out" {
		t.Errorf("Relations(Output) = %v", out)
	}
	if got := len(s.All()); got != 3 {
		t.Errorf("All() size = %d, want 3", got)
	}
}

// keyIndex is an Index over a slice of keys (id = position), the way
// the example oracle indexes i-slices.
type keyIndex struct {
	x    Index
	keys []Tuple
}

func (k *keyIndex) at(id int32) Tuple { return k.keys[id] }

// add returns the id of key t, assigning the next position when new.
func (k *keyIndex) add(t Tuple) (int32, bool) {
	id, added := k.x.Insert(t, int32(len(k.keys)), k.at)
	if added {
		k.keys = append(k.keys, t)
	}
	return id, added
}

func TestTupleKeyInjective(t *testing.T) {
	// The identity index must distinguish relation ids from argument
	// values and different arities with coinciding prefixes.
	cases := []Tuple{
		NewTuple(0, 1, 2),
		NewTuple(0, 2, 1),
		NewTuple(1, 1, 2),
		NewTuple(0, 1),
		NewTuple(0, 1, 2, 3),
		NewTuple(0),
	}
	var k keyIndex
	for _, tu := range cases {
		if id, added := k.add(tu); !added {
			t.Errorf("identity collision between %v and %v", k.keys[id], tu)
		}
	}
}

func TestTupleKeyQuick(t *testing.T) {
	f := func(r1, r2 uint8, a1, a2 []uint8) bool {
		t1 := Tuple{Rel: RelID(r1), Args: make([]Const, len(a1))}
		for i, v := range a1 {
			t1.Args[i] = Const(v)
		}
		t2 := Tuple{Rel: RelID(r2), Args: make([]Const, len(a2))}
		for i, v := range a2 {
			t2.Args[i] = Const(v)
		}
		var k keyIndex
		k.add(t1)
		_, found := k.x.Find(t2, k.at)
		return found == t1.Equal(t2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleSliceKey(t *testing.T) {
	// An i-slice is keyed as the tuple (Rel, Args[:i]).
	slice := func(tu Tuple, i int) Tuple { return Tuple{Rel: tu.Rel, Args: tu.Args[:i]} }
	tu := NewTuple(3, 7, 8, 9)
	var k keyIndex
	full, _ := k.add(slice(tu, 3))
	if id, ok := k.x.Find(tu, k.at); !ok || id != full {
		t.Error("the full-arity slice is not the tuple's key")
	}
	one, _ := k.add(slice(tu, 1))
	two, _ := k.add(slice(tu, 2))
	if one == two {
		t.Error("distinct slices share a key")
	}
	other := NewTuple(3, 7, 9, 8)
	if id, _ := k.add(slice(other, 1)); id != one {
		t.Error("equal 1-slices have different keys")
	}
}

func TestTupleCompareTotalOrder(t *testing.T) {
	ts := []Tuple{
		NewTuple(1, 0),
		NewTuple(0, 5),
		NewTuple(0, 1, 2),
		NewTuple(0, 1),
		NewTuple(0, 1, 1),
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
	for i := 0; i+1 < len(ts); i++ {
		if ts[i].Compare(ts[i+1]) >= 0 {
			t.Fatalf("not sorted at %d: %v vs %v", i, ts[i], ts[i+1])
		}
	}
	if ts[0].Compare(ts[0]) != 0 {
		t.Error("Compare(self) != 0")
	}
}

func TestTupleString(t *testing.T) {
	s := NewSchema()
	d := NewDomain()
	edge := s.MustDeclare("edge", 2, Input)
	a, b := d.Intern("a"), d.Intern("b")
	tu := NewTuple(edge, a, b)
	if got := tu.String(s, d); got != "edge(a, b)" {
		t.Errorf("String = %q", got)
	}
	if !tu.Contains(a) || tu.Contains(d.Intern("c")) {
		t.Error("Contains misbehaves")
	}
}

func buildTestDB(t *testing.T) (*Database, RelID, RelID, []Const) {
	t.Helper()
	s := NewSchema()
	d := NewDomain()
	edge := s.MustDeclare("edge", 2, Input)
	color := s.MustDeclare("color", 1, Input)
	db := NewDatabase(s, d)
	a, b, c := d.Intern("a"), d.Intern("b"), d.Intern("c")
	db.Insert(NewTuple(edge, a, b))
	db.Insert(NewTuple(edge, b, c))
	db.Insert(NewTuple(edge, a, c))
	db.Insert(NewTuple(color, a))
	return db, edge, color, []Const{a, b, c}
}

func TestDatabaseInsertDedup(t *testing.T) {
	db, edge, _, cs := buildTestDB(t)
	n := db.Size()
	id1 := db.Insert(NewTuple(edge, cs[0], cs[1]))
	if db.Size() != n {
		t.Errorf("duplicate insert grew database to %d", db.Size())
	}
	id2, ok := db.ID(NewTuple(edge, cs[0], cs[1]))
	if !ok || id1 != id2 {
		t.Errorf("ID lookup = %d,%v want %d,true", id2, ok, id1)
	}
}

func TestDatabaseExtentAndIndex(t *testing.T) {
	db, edge, color, cs := buildTestDB(t)
	if got := db.ExtentSize(edge); got != 3 {
		t.Errorf("edge extent = %d, want 3", got)
	}
	if got := db.ExtentSize(color); got != 1 {
		t.Errorf("color extent = %d, want 1", got)
	}
	// a appears in column 0 of edge twice.
	if got := len(db.AtColumn(edge, 0, cs[0])); got != 2 {
		t.Errorf("AtColumn(edge,0,a) = %d, want 2", got)
	}
	if got := len(db.AtColumn(edge, 1, cs[2])); got != 2 {
		t.Errorf("AtColumn(edge,1,c) = %d, want 2", got)
	}
	if got := db.AtColumn(edge, 0, Const(99)); got != nil {
		t.Errorf("AtColumn unknown const = %v, want nil", got)
	}
	if got := db.AtColumn(RelID(9), 0, cs[0]); got != nil {
		t.Errorf("AtColumn unknown rel = %v, want nil", got)
	}
}

func TestDatabaseMentioning(t *testing.T) {
	db, _, _, cs := buildTestDB(t)
	// a is mentioned by edge(a,b), edge(a,c), color(a).
	if got := len(db.Mentioning(cs[0])); got != 3 {
		t.Errorf("Mentioning(a) = %d, want 3", got)
	}
	// b is mentioned by edge(a,b), edge(b,c).
	if got := len(db.Mentioning(cs[1])); got != 2 {
		t.Errorf("Mentioning(b) = %d, want 2", got)
	}
}

func TestDatabaseMentioningDedupSelfPair(t *testing.T) {
	s := NewSchema()
	d := NewDomain()
	edge := s.MustDeclare("edge", 2, Input)
	db := NewDatabase(s, d)
	a := d.Intern("a")
	db.Insert(NewTuple(edge, a, a))
	if got := len(db.Mentioning(a)); got != 1 {
		t.Errorf("Mentioning(a) with edge(a,a) = %d, want 1 (dedup)", got)
	}
}

func TestDatabaseConstantsOf(t *testing.T) {
	db, _, _, cs := buildTestDB(t)
	got := db.ConstantsOf([]TupleID{0, 3}) // edge(a,b), color(a)
	want := []Const{cs[0], cs[1]}
	if len(got) != len(want) {
		t.Fatalf("ConstantsOf = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ConstantsOf = %v, want %v", got, want)
		}
	}
}

func TestDatabaseSortedDeterministic(t *testing.T) {
	db, _, _, _ := buildTestDB(t)
	a := db.Sorted()
	b := db.Sorted()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("Sorted not deterministic")
		}
	}
	for i := 0; i+1 < len(a); i++ {
		if a[i].Compare(a[i+1]) > 0 {
			t.Fatal("Sorted not sorted")
		}
	}
}
