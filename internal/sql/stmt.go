package sql

// DML statements. The write grammar mirrors the read side's
// deliberately small surface: equality predicates only (UPDATE and
// DELETE address rows by value, the way the facade's point writes do),
// numeric literals only, and single-assignment SET clauses:
//
//	INSERT INTO t (a, b, c) VALUES (1, 2, 3), (4, 5, 6)
//	UPDATE t SET a = 7 WHERE b = 2
//	DELETE FROM t WHERE c = 6
//
// Write statements are parsed per call and never plan-cached — their
// fingerprints (Normalize works on any token stream) exist for
// observability, not cache keys — so ParseStmt is the whole front end
// for them.

import (
	"fmt"
	"strconv"
	"strings"
)

// Stmt is one parsed statement: *Query (SELECT), *Insert, *Update or
// *Delete. String renders a canonical form that re-parses to
// an equal statement.
type Stmt interface {
	fmt.Stringer
	stmt()
}

func (*Query) stmt()  {}
func (*Insert) stmt() {}
func (*Update) stmt() {}
func (*Delete) stmt() {}

// Insert appends whole rows. Columns is the optional explicit column
// list (nil = the table's column order); every row supplies one numeric
// value per listed column.
type Insert struct {
	Schema, Table string
	Columns       []string
	Rows          [][]float64
}

// Update sets one column to a constant on every visible row matching an
// equality predicate: UPDATE t SET SetCol = SetVal WHERE PredCol = PredVal.
type Update struct {
	Schema, Table string
	SetCol        string
	SetVal        float64
	PredCol       string
	PredVal       float64
}

// Delete removes every visible row matching an equality predicate.
type Delete struct {
	Schema, Table string
	PredCol       string
	PredVal       float64
}

func (s *Insert) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s", renderTableRef(s.Schema, s.Table))
	if len(s.Columns) > 0 {
		cols := make([]string, len(s.Columns))
		for i, c := range s.Columns {
			cols[i] = quoteIdent(c)
		}
		fmt.Fprintf(&b, " (%s)", strings.Join(cols, ", "))
	}
	b.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		vals := make([]string, len(row))
		for j, v := range row {
			vals[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		fmt.Fprintf(&b, "(%s)", strings.Join(vals, ", "))
	}
	return b.String()
}

func (s *Update) String() string {
	return fmt.Sprintf("UPDATE %s SET %s = %g WHERE %s = %g",
		renderTableRef(s.Schema, s.Table), quoteIdent(s.SetCol), s.SetVal,
		quoteIdent(s.PredCol), s.PredVal)
}

func (s *Delete) String() string {
	return fmt.Sprintf("DELETE FROM %s WHERE %s = %g",
		renderTableRef(s.Schema, s.Table), quoteIdent(s.PredCol), s.PredVal)
}

// renderTableRef renders a (schema, table) pair so it re-parses to the
// same pair — the shared form of Query.tableRef.
func renderTableRef(schema, table string) string {
	if schema != "" && schema != "sys" {
		return quoteIdent(schema + "." + table)
	}
	if strings.ContainsRune(table, '.') {
		return `"` + table + `"`
	}
	return quoteIdent(table)
}

// ParseStmt parses one statement of any supported class, dispatching on
// the leading keyword (SELECT falls through to the read grammar).
// Errors are *SyntaxError values carrying the byte offset of the fault.
func ParseStmt(src string) (Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, eof: len(src)}
	if t := p.peek(); t.kind == "ident" && !t.quoted {
		switch strings.ToUpper(t.s) {
		case "INSERT":
			return p.parseInsert()
		case "UPDATE":
			return p.parseUpdate()
		case "DELETE":
			return p.parseDelete()
		}
	}
	return p.parseQuery()
}

// tableName parses a table reference, splitting an unquoted
// "schema.table" form (the parseQuery convention).
func (p *parser) tableName() (schema, table string, err error) {
	t := p.peek()
	name, err := p.ident()
	if err != nil {
		return "", "", err
	}
	if i := strings.IndexByte(name, '.'); i >= 0 && !t.quoted {
		return name[:i], name[i+1:], nil
	}
	return "sys", name, nil
}

// finish consumes an optional trailing semicolon and requires end of
// input.
func (p *parser) finish() error {
	if p.peek().kind == "punct" && p.peek().s == ";" {
		p.next()
	}
	if p.pos != len(p.toks) {
		return errAt(p.peek().off, "trailing input at %s", describe(p.peek()))
	}
	return nil
}

// parseInsert: INSERT INTO t [(c1, ...)] VALUES (v1, ...) [, (...)]...
func (p *parser) parseInsert() (*Insert, error) {
	s := &Insert{}
	if err := p.keyword("insert"); err != nil {
		return nil, err
	}
	if err := p.keyword("into"); err != nil {
		return nil, err
	}
	var err error
	if s.Schema, s.Table, err = p.tableName(); err != nil {
		return nil, err
	}
	if p.peek().kind == "punct" && p.peek().s == "(" {
		p.next()
		seen := make(map[string]bool)
		for {
			off := p.peek().off
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			if seen[col] {
				return nil, errAt(off, "duplicate column %q", col)
			}
			seen[col] = true
			s.Columns = append(s.Columns, col)
			if p.peek().kind == "punct" && p.peek().s == "," {
				p.next()
				continue
			}
			break
		}
		if err := p.punct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.keyword("values"); err != nil {
		return nil, err
	}
	for {
		rowOff := p.peek().off
		if err := p.punct("("); err != nil {
			return nil, err
		}
		var row []float64
		for {
			v, err := p.number()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.peek().kind == "punct" && p.peek().s == "," {
				p.next()
				continue
			}
			break
		}
		if err := p.punct(")"); err != nil {
			return nil, err
		}
		if len(s.Columns) > 0 && len(row) != len(s.Columns) {
			return nil, errAt(rowOff, "row has %d values, want %d", len(row), len(s.Columns))
		}
		if len(s.Rows) > 0 && len(row) != len(s.Rows[0]) {
			return nil, errAt(rowOff, "row has %d values, want %d", len(row), len(s.Rows[0]))
		}
		s.Rows = append(s.Rows, row)
		if p.peek().kind == "punct" && p.peek().s == "," {
			p.next()
			continue
		}
		break
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// parseUpdate: UPDATE t SET col = num WHERE col = num.
func (p *parser) parseUpdate() (*Update, error) {
	s := &Update{}
	if err := p.keyword("update"); err != nil {
		return nil, err
	}
	var err error
	if s.Schema, s.Table, err = p.tableName(); err != nil {
		return nil, err
	}
	if err := p.keyword("set"); err != nil {
		return nil, err
	}
	if s.SetCol, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.punct("="); err != nil {
		return nil, err
	}
	if s.SetVal, err = p.number(); err != nil {
		return nil, err
	}
	if err := p.keyword("where"); err != nil {
		return nil, err
	}
	if s.PredCol, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.punct("="); err != nil {
		return nil, err
	}
	if s.PredVal, err = p.number(); err != nil {
		return nil, err
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// parseDelete: DELETE FROM t WHERE col = num.
func (p *parser) parseDelete() (*Delete, error) {
	s := &Delete{}
	if err := p.keyword("delete"); err != nil {
		return nil, err
	}
	if err := p.keyword("from"); err != nil {
		return nil, err
	}
	var err error
	if s.Schema, s.Table, err = p.tableName(); err != nil {
		return nil, err
	}
	if err := p.keyword("where"); err != nil {
		return nil, err
	}
	if s.PredCol, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.punct("="); err != nil {
		return nil, err
	}
	if s.PredVal, err = p.number(); err != nil {
		return nil, err
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	return s, nil
}
