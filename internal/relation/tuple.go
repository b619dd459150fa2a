package relation

import (
	"strings"
)

// Tuple is a ground fact R(c1, ..., ck): an interned relation id
// together with k interned constants.
type Tuple struct {
	Rel  RelID
	Args []Const
}

// NewTuple builds a tuple. The args slice is used directly (not
// copied); callers that reuse buffers must copy first or use
// NewTupleCopy. Database.Insert and Database.InternTuple copy at
// their boundary, so tuples handed to a Database are safe either way.
func NewTuple(rel RelID, args ...Const) Tuple {
	return Tuple{Rel: rel, Args: args}
}

// NewTupleCopy builds a tuple over a private copy of args. Use it
// when the argument slice is a reused buffer (parser scratch space,
// enumeration cursors) that may be overwritten after construction.
func NewTupleCopy(rel RelID, args []Const) Tuple {
	return Tuple{Rel: rel, Args: append([]Const(nil), args...)}
}

// Equal reports whether two tuples are identical.
func (t Tuple) Equal(u Tuple) bool {
	if t.Rel != u.Rel || len(t.Args) != len(u.Args) {
		return false
	}
	for i := range t.Args {
		if t.Args[i] != u.Args[i] {
			return false
		}
	}
	return true
}

// Compare orders tuples by relation id, then arity, then
// argument-wise. It returns -1, 0, or +1.
func (t Tuple) Compare(u Tuple) int {
	switch {
	case t.Rel < u.Rel:
		return -1
	case t.Rel > u.Rel:
		return 1
	}
	switch {
	case len(t.Args) < len(u.Args):
		return -1
	case len(t.Args) > len(u.Args):
		return 1
	}
	for i := range t.Args {
		switch {
		case t.Args[i] < u.Args[i]:
			return -1
		case t.Args[i] > u.Args[i]:
			return 1
		}
	}
	return 0
}

// String renders the tuple using the given schema and domain, e.g.
// "Intersects(Broadway, Whitehall)".
func (t Tuple) String(s *Schema, d *Domain) string {
	var b strings.Builder
	b.WriteString(s.Name(t.Rel))
	b.WriteByte('(')
	for i, a := range t.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(d.Name(a))
	}
	b.WriteByte(')')
	return b.String()
}

// Contains reports whether the tuple mentions constant c.
func (t Tuple) Contains(c Const) bool {
	for _, a := range t.Args {
		if a == c {
			return true
		}
	}
	return false
}
