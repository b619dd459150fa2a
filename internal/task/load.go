package task

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"github.com/egs-synthesis/egs/internal/parser"
	"github.com/egs-synthesis/egs/internal/relation"
)

// Load reads a task from a .task file and prepares it.
//
// The format is line-oriented; see DESIGN.md section 5. Directive
// lines begin with a keyword (task, domain, closed-world, negate,
// neq, features, input, output, expect, modes); fact lines are ground
// atoms terminated by '.', prefixed by '+' for positive and '-' for
// negative output examples.
func Load(path string) (*Task, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if t.Name == "" {
		t.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	return t, nil
}

// Parse reads a task from r and prepares it.
func Parse(r io.Reader) (*Task, error) {
	t := &Task{
		Schema: relation.NewSchema(),
		Domain: relation.NewDomain(),
	}
	t.Input = relation.NewDatabase(t.Schema, t.Domain)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		stripped := stripComment(sc.Text())
		line := strings.TrimSpace(stripped)
		if line == "" {
			continue
		}
		// The column where the trimmed content starts in the raw line,
		// so parser errors report whole-file coordinates.
		start := strings.IndexFunc(stripped, func(r rune) bool { return !unicode.IsSpace(r) })
		pos := parser.Pos{Line: lineNo, Col: utf8.RuneCountInString(stripped[:start]) + 1}
		if err := t.parseLine(line, pos); err != nil {
			var serr *parser.SyntaxError
			if errors.As(err, &serr) {
				// Already carries a file-absolute position; a "line N:"
				// prefix would duplicate (or contradict) it.
				return nil, err
			}
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := t.Prepare(); err != nil {
		return nil, err
	}
	return t, nil
}

func stripComment(line string) string {
	// '#' comments only; '//' inside quoted strings would be risky,
	// and task files use '#'.
	if i := strings.IndexByte(line, '#'); i >= 0 {
		return line[:i]
	}
	return line
}

func (t *Task) parseLine(line string, pos parser.Pos) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "task":
		if len(fields) != 2 {
			return fmt.Errorf("task directive needs exactly one name")
		}
		t.Name = fields[1]
		return nil
	case "domain":
		if len(fields) != 2 {
			return fmt.Errorf("domain directive needs exactly one category")
		}
		t.Category = fields[1]
		return nil
	case "closed-world":
		b, err := parseBool(fields)
		if err != nil {
			return err
		}
		t.ClosedWorld = b
		return nil
	case "neq":
		b, err := parseBool(fields)
		if err != nil {
			return err
		}
		t.AddNeq = b
		return nil
	case "typed-negation":
		b, err := parseBool(fields)
		if err != nil {
			return err
		}
		t.TypedNegation = b
		return nil
	case "negate":
		if len(fields) < 2 {
			return fmt.Errorf("negate directive needs at least one relation name")
		}
		t.NegateRels = append(t.NegateRels, fields[1:]...)
		return nil
	case "features":
		for _, f := range fields[1:] {
			switch f {
			case "disjunction":
				t.FeatureDisj = true
			case "negation":
				t.FeatureNeg = true
			default:
				return fmt.Errorf("unknown feature %q", f)
			}
		}
		return nil
	case "expect":
		if len(fields) != 2 {
			return fmt.Errorf("expect directive needs sat or unsat")
		}
		switch fields[1] {
		case "sat":
			t.Expect = ExpectSat
		case "unsat":
			t.Expect = ExpectUnsat
		default:
			return fmt.Errorf("expect directive needs sat or unsat, got %q", fields[1])
		}
		return nil
	case "input", "output":
		return t.parseDecl(fields)
	case "modes":
		return t.parseModes(fields[1:])
	case "intended":
		rest := strings.TrimSpace(strings.TrimPrefix(line, "intended"))
		if rest == "" {
			return fmt.Errorf("intended directive needs a rule")
		}
		t.IntendedSrc = append(t.IntendedSrc, rest)
		return nil
	}
	// Otherwise: a fact line, possibly prefixed with + or -.
	return t.parseFact(line, pos)
}

func parseBool(fields []string) (bool, error) {
	if len(fields) != 2 {
		return false, fmt.Errorf("%s directive needs true or false", fields[0])
	}
	switch fields[1] {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, fmt.Errorf("%s directive needs true or false, got %q", fields[0], fields[1])
}

// parseDecl handles "input rel(arity)" and "output rel(arity)".
func (t *Task) parseDecl(fields []string) error {
	kind := relation.Input
	if fields[0] == "output" {
		kind = relation.Output
	}
	if len(fields) != 2 {
		return fmt.Errorf("%s directive needs one rel(arity)", fields[0])
	}
	spec := fields[1]
	open := strings.IndexByte(spec, '(')
	if open <= 0 || !strings.HasSuffix(spec, ")") {
		return fmt.Errorf("malformed declaration %q, want rel(arity)", spec)
	}
	name := spec[:open]
	arity, err := strconv.Atoi(spec[open+1 : len(spec)-1])
	if err != nil {
		return fmt.Errorf("malformed arity in %q: %v", spec, err)
	}
	_, err = t.Schema.Declare(name, arity, kind)
	return err
}

// parseModes handles "modes maxv=N rel=occ rel=occ ...".
func (t *Task) parseModes(fields []string) error {
	m := &ModeSpec{Occurrences: make(map[string]int)}
	for _, f := range fields {
		eq := strings.IndexByte(f, '=')
		if eq <= 0 {
			return fmt.Errorf("malformed mode %q, want key=value", f)
		}
		key, valStr := f[:eq], f[eq+1:]
		val, err := strconv.Atoi(valStr)
		if err != nil || val < 0 {
			return fmt.Errorf("malformed mode value in %q", f)
		}
		if key == "maxv" {
			m.MaxVars = val
		} else {
			m.Occurrences[key] = val
		}
	}
	if m.MaxVars <= 0 {
		return fmt.Errorf("modes directive needs maxv=N with N > 0")
	}
	t.Modes = m
	return nil
}

// parseFact handles input facts and +/- output example tuples. pos is
// the file position of the first character of line; positions in the
// returned errors are file-absolute.
func (t *Task) parseFact(line string, pos parser.Pos) error {
	sign := byte(0)
	if line[0] == '+' || line[0] == '-' {
		sign = line[0]
		rest := line[1:]
		// Advance pos past the sign and any whitespace before the atom.
		lead := strings.IndexFunc(rest, func(r rune) bool { return !unicode.IsSpace(r) })
		if lead < 0 {
			lead = len(rest)
		}
		pos.Col += 1 + utf8.RuneCountInString(rest[:lead])
		line = strings.TrimSpace(rest)
	}
	relName, args, err := parser.ParseGroundAtomAt(line, pos)
	if err != nil {
		return err
	}
	rel, ok := t.Schema.Lookup(relName)
	if !ok {
		return &parser.SyntaxError{Pos: pos, Msg: fmt.Sprintf("undeclared relation %q", relName)}
	}
	if got, want := len(args), t.Schema.Arity(rel); got != want {
		return &parser.SyntaxError{Pos: pos, Msg: fmt.Sprintf("relation %q has arity %d, fact has %d arguments", relName, want, got)}
	}
	consts := make([]relation.Const, len(args))
	for i, a := range args {
		consts[i] = t.Domain.Intern(a)
	}
	tuple := relation.Tuple{Rel: rel, Args: consts}
	info := t.Schema.Info(rel)
	switch sign {
	case 0:
		if info.Kind != relation.Input {
			return fmt.Errorf("fact over output relation %q must be signed with + or -", relName)
		}
		t.Input.Insert(tuple)
	case '+':
		if info.Kind != relation.Output {
			return fmt.Errorf("positive example over input relation %q", relName)
		}
		if err := t.recordExample(tuple, '+'); err != nil {
			return err
		}
		t.Pos = append(t.Pos, tuple)
	case '-':
		if info.Kind != relation.Output {
			return fmt.Errorf("negative example over input relation %q", relName)
		}
		if err := t.recordExample(tuple, '-'); err != nil {
			return err
		}
		t.Neg = append(t.Neg, tuple)
	}
	return nil
}

// recordExample tracks the labelled output tuples seen so far in this
// parse and rejects repeats: a duplicate label is almost always a
// task-authoring mistake (a mis-edited tuple), and silently
// deduplicating would mask it. Conflicting labels are rejected here
// too, with the same wording Prepare uses for programmatic tasks.
func (t *Task) recordExample(tuple relation.Tuple, sign byte) error {
	id := int32(2 * len(t.Pos))
	if sign == '-' {
		id = int32(2*len(t.Neg) + 1)
	}
	prev, added := t.seenExamples.Insert(tuple, id, t.exampleAt)
	if added {
		return nil
	}
	rendered := tuple.String(t.Schema, t.Domain)
	if prev%2 != id%2 {
		return fmt.Errorf("tuple %s labelled both positive and negative", rendered)
	}
	if sign == '+' {
		return fmt.Errorf("duplicate positive example %s", rendered)
	}
	return fmt.Errorf("duplicate negative example %s", rendered)
}

// exampleAt resolves a seenExamples id: 2i names Pos[i], 2i+1 Neg[i].
func (t *Task) exampleAt(id int32) relation.Tuple {
	if id%2 == 0 {
		return t.Pos[id/2]
	}
	return t.Neg[id/2]
}

// LoadDir loads every .task file under dir (recursively), sorted by
// task name for determinism.
func LoadDir(dir string) ([]*Task, error) {
	var paths []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(path, ".task") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	tasks := make([]*Task, 0, len(paths))
	for _, p := range paths {
		t, err := Load(p)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, t)
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].Name < tasks[j].Name })
	return tasks, nil
}
