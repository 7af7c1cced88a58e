// Package sql is the SQL front end: a lexer, the parsers of the
// statement classes the engine serves, and Normalize. Reads are the
// range-selection class the paper studies (§2) —
//
//	SELECT objid FROM P WHERE ra BETWEEN 205.1 AND 205.12
//	SELECT COUNT(*) FROM P WHERE ra BETWEEN 205.1 AND 205.12
//	SELECT SUM(dec) FROM P WHERE ra BETWEEN 205.1 AND 205.12
//
// — and the write grammar (stmt.go) adds INSERT, UPDATE and DELETE,
// parsed by ParseStmt. There is no DDL: a statement starting with
// CREATE is a syntax error at offset 0.
//
// Normalize (normalize.go) additionally produces the canonical
// constant-lifted fingerprint of a statement, the key of the query
// tier's plan cache (internal/plancache), for write statements as for
// reads.
//
// The package imports nothing of the engine: the query service
// (internal/server) binds parsed statements to the facade, and the
// paper's SQL → MAL code generator lives in internal/sql/malgen.
package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// SyntaxError is a lexing or parsing failure with the byte offset of the
// offending input. The query service uses Offset to point clients at
// the error position.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sql: %s at offset %d", e.Msg, e.Offset)
}

// errAt builds a positioned syntax error.
func errAt(off int, format string, args ...any) error {
	return &SyntaxError{Offset: off, Msg: fmt.Sprintf(format, args...)}
}

// Query is the parsed form of the supported statement class.
type Query struct {
	// Projections lists selected column names; empty when an aggregate is
	// used instead.
	Projections []string
	// Aggregate is "count" or "sum" ("" for plain projections). Count
	// ignores AggrCol; Sum reads it.
	Aggregate string
	AggrCol   string
	Table     string
	// Predicate: PredCol BETWEEN Lo AND Hi.
	PredCol string
	Lo, Hi  float64
	// Schema defaults to "sys", MonetDB's default schema.
	Schema string
}

func (q *Query) String() string {
	var sel string
	switch q.Aggregate {
	case "count":
		sel = "COUNT(*)"
	case "sum":
		sel = fmt.Sprintf("SUM(%s)", quoteIdent(q.AggrCol))
	default:
		quoted := make([]string, len(q.Projections))
		for i, p := range q.Projections {
			quoted[i] = quoteIdent(p)
		}
		sel = strings.Join(quoted, ", ")
	}
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s BETWEEN %g AND %g",
		sel, q.tableRef(), quoteIdent(q.PredCol), q.Lo, q.Hi)
}

// tableRef renders the FROM target so it re-parses to the same
// (Schema, Table) pair: a non-default schema joins back into the dotted
// form the parser splits, while a default-schema table containing dots
// must be quoted or the re-parse would split it.
func (q *Query) tableRef() string { return renderTableRef(q.Schema, q.Table) }

// quoteIdent renders an identifier, double-quoting it when it would not
// survive a round trip as a plain token (keyword spelling, exotic
// characters). Plain identifiers render as-is, so String stays readable.
func quoteIdent(s string) string {
	if isPlainIdent(s) && !isKeyword(s) {
		return s
	}
	return `"` + s + `"`
}

// isPlainIdent reports whether s lexes as a single bare identifier.
func isPlainIdent(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentPart(s[i]) {
			return false
		}
	}
	return true
}

// Parse parses one SELECT of the supported class (use ParseStmt for the
// full statement surface including DML). Keywords are case-insensitive;
// identifiers keep their case. Double-quoted identifiers escape keyword
// interpretation ("select" is a column name). Errors are *SyntaxError
// values carrying the byte offset of the fault.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, eof: len(src)}
	return p.parseQuery()
}

// MustParse parses or panics (tests, embedded queries).
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// --- lexer ---

type tok struct {
	kind   string // "ident", "num", "str", "punct", "" (eof)
	s      string
	f      float64
	off    int  // byte offset of the token's first character
	quoted bool // ident came double-quoted: never a keyword
}

func lex(src string) ([]tok, error) {
	var out []tok
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == ',' || c == '(' || c == ')' || c == '*' || c == ';' || c == '=':
			out = append(out, tok{kind: "punct", s: string(c), off: i})
			i++
		case c == '\'':
			j := i + 1
			for j < len(src) && src[j] != '\'' {
				j++
			}
			if j >= len(src) {
				return nil, errAt(i, "unterminated string literal")
			}
			out = append(out, tok{kind: "str", s: src[i+1 : j], off: i})
			i = j + 1
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				j++
			}
			if j >= len(src) {
				return nil, errAt(i, "unterminated quoted identifier")
			}
			if j == i+1 {
				return nil, errAt(i, "empty quoted identifier")
			}
			out = append(out, tok{kind: "ident", s: src[i+1 : j], off: i, quoted: true})
			i = j + 1
		case isDigit(c) || c == '-' || c == '.':
			j := i
			if src[j] == '-' {
				j++
			}
			for j < len(src) && (isDigit(src[j]) || src[j] == '.' || src[j] == 'e' ||
				src[j] == 'E' || ((src[j] == '+' || src[j] == '-') && (src[j-1] == 'e' || src[j-1] == 'E'))) {
				j++
			}
			// strconv is strict where Sscanf is lenient: "1.2.3" or "1e"
			// must be rejected, not silently truncated to a prefix.
			f, err := strconv.ParseFloat(src[i:j], 64)
			if err != nil {
				return nil, errAt(i, "bad number %q", src[i:j])
			}
			out = append(out, tok{kind: "num", s: src[i:j], f: f, off: i})
			i = j
		case isIdentStart(c):
			j := i
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			out = append(out, tok{kind: "ident", s: src[i:j], off: i})
			i = j
		default:
			return nil, errAt(i, "unexpected character %q", string(c))
		}
	}
	return out, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) || c == '.' }

// --- parser ---

type parser struct {
	toks []tok
	pos  int
	eof  int // source length: the offset reported at end of input
}

func (p *parser) peek() tok {
	if p.pos >= len(p.toks) {
		return tok{off: p.eof}
	}
	return p.toks[p.pos]
}

func (p *parser) next() tok {
	t := p.peek()
	p.pos++
	return t
}

// describe renders a token for error messages.
func describe(t tok) string {
	if t.kind == "" {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.s)
}

// keyword consumes an identifier equal (case-insensitively) to kw.
// Quoted identifiers never match: "from" is a column named from.
func (p *parser) keyword(kw string) error {
	t := p.next()
	if t.kind != "ident" || t.quoted || !strings.EqualFold(t.s, kw) {
		return errAt(t.off, "expected %s, found %s", strings.ToUpper(kw), describe(t))
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.next()
	if t.kind != "ident" {
		return "", errAt(t.off, "expected identifier, found %s", describe(t))
	}
	if !t.quoted && isKeyword(t.s) {
		return "", errAt(t.off, "unexpected keyword %q", t.s)
	}
	return t.s, nil
}

func (p *parser) punct(s string) error {
	t := p.next()
	if t.kind != "punct" || t.s != s {
		return errAt(t.off, "expected %q, found %s", s, describe(t))
	}
	return nil
}

func (p *parser) number() (float64, error) {
	t := p.next()
	if t.kind != "num" {
		return 0, errAt(t.off, "expected number, found %s", describe(t))
	}
	return t.f, nil
}

// isKeyword lists the reserved words. CREATE and TABLE stay reserved
// though no statement uses them, so fingerprints and identifier quoting
// do not depend on which statement classes are served.
func isKeyword(s string) bool {
	switch strings.ToUpper(s) {
	case "SELECT", "FROM", "WHERE", "BETWEEN", "AND", "COUNT", "SUM",
		"INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "CREATE", "TABLE":
		return true
	}
	return false
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Schema: "sys"}
	if err := p.keyword("select"); err != nil {
		return nil, err
	}
	// Projection list or aggregate.
	t := p.peek()
	switch {
	case t.kind == "ident" && !t.quoted && strings.EqualFold(t.s, "count"):
		p.next()
		if err := p.punct("("); err != nil {
			return nil, err
		}
		if err := p.punct("*"); err != nil {
			return nil, err
		}
		if err := p.punct(")"); err != nil {
			return nil, err
		}
		q.Aggregate = "count"
	case t.kind == "ident" && !t.quoted && strings.EqualFold(t.s, "sum"):
		p.next()
		if err := p.punct("("); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.punct(")"); err != nil {
			return nil, err
		}
		q.Aggregate = "sum"
		q.AggrCol = col
	default:
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			q.Projections = append(q.Projections, col)
			if p.peek().kind == "punct" && p.peek().s == "," {
				p.next()
				continue
			}
			break
		}
	}
	if err := p.keyword("from"); err != nil {
		return nil, err
	}
	// Optional schema qualification "schema.table" (plain identifiers
	// only: a quoted identifier keeps its dots).
	var err error
	if q.Schema, q.Table, err = p.tableName(); err != nil {
		return nil, err
	}
	if err := p.keyword("where"); err != nil {
		return nil, err
	}
	q.PredCol, err = p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.keyword("between"); err != nil {
		return nil, err
	}
	// Inverted bounds are legal and select nothing (SQL's asymmetric
	// BETWEEN): rejecting them here would make the answer depend on
	// whether the shape's plan is cached, since a cached plan takes any
	// constants.
	if q.Lo, err = p.number(); err != nil {
		return nil, err
	}
	if err := p.keyword("and"); err != nil {
		return nil, err
	}
	if q.Hi, err = p.number(); err != nil {
		return nil, err
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	return q, nil
}
