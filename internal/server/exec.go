package server

import (
	"fmt"
	"math"

	"selforg"
	"selforg/internal/sql"
)

// opKind names the physical operator a statement binds to; it is also
// the wire's "op" field.
type opKind string

const (
	opSelect opKind = "select"
	opCount  opKind = "count"
	opSum    opKind = "sum"
	opInsert opKind = "insert"
	opUpdate opKind = "update"
	opDelete opKind = "delete"
)

// The one served column: every tenant's facade column is sys.P(v).
const servedSchema, servedTable, servedColumn = "sys", "P", "v"

// readMethod names the facade call run makes for each read operator.
var readMethod = map[opKind]string{
	opSelect: "Column.SelectRows",
	opCount:  "Column.Count",
	opSum:    "Column.Sum",
}

// plan is one bound statement: the operator that runs on the tenant's
// column. It reads every constant from the fingerprint's bind slots, so
// one plan serves every tenant and every constant instantiation of its
// shape — what the cache holds is what executes.
type plan struct {
	op opKind
}

// CompileError wraps a bind-side failure that is not a syntax error —
// an unknown table or column, an arity mismatch, a non-integer literal.
// The HTTP layer maps it (like *sql.SyntaxError) to 400.
type CompileError struct{ Err error }

func (e *CompileError) Error() string { return e.Err.Error() }
func (e *CompileError) Unwrap() error { return e.Err }

func compileErrorf(format string, args ...any) error {
	return &CompileError{Err: fmt.Errorf(format, args...)}
}

// Result is one executed statement's answer, written by appendJSON; the
// tags decode it. For writes Count is the number of rows affected.
type Result struct {
	Op    string `json:"op"`
	Count int64  `json:"count"`
	// Sum is on the wire exactly when Op is sum, 0 included.
	Sum int64 `json:"sum"`
	// Rows streams the rope chunks straight into the JSON encoding; nil
	// (omitted on the wire) when the result has no rows, matching the
	// empty-slice omission of the flat encoding it replaced.
	Rows *Rows `json:"rows,omitempty"`
	// Columns and Tuples are the wire form of a multi-column result.
	// The served column is one column, so the server never sets them;
	// clients that decode them keep building.
	Columns []string  `json:"columns,omitempty"`
	Tuples  [][]int64 `json:"tuples,omitempty"`
	// Truncated reports that Rows was capped at Config.MaxRows;
	// Count still carries the full cardinality.
	Truncated   bool          `json:"truncated,omitempty"`
	Stats       selforg.Stats `json:"stats"`
	Cached      bool          `json:"cached"`
	Fingerprint string        `json:"fingerprint"`
	Tenant      string        `json:"tenant"`
	// Plan is the bound plan ?explain=1 asks for (see Explain).
	Plan string `json:"plan,omitempty"`
}

// Exec runs one statement for the named tenant — the single statement
// path: prepare (normalize → plan cache → parse → bind) → run. It is the
// admission-free core: the HTTP layer adds the gate, Exec is what
// benchmarks and in-process callers use.
func (s *Server) Exec(tenant, src string) (*Result, error) {
	n, p, cached, err := s.prepare(src)
	if err != nil {
		return nil, err
	}
	t, err := s.tenantEntry(tenant)
	if err != nil {
		return nil, err
	}
	res, err := s.run(t, p, n.Binds)
	if err != nil {
		return nil, err
	}
	res.Op, res.Cached, res.Fingerprint, res.Tenant = string(p.op), cached, n.Fingerprint, t.name
	return res, nil
}

// prepare is the front of the statement path: one lex pass
// (fingerprint + binds), then the plan cache, for reads and writes
// alike — a plan takes every constant from the bind slots, so one
// fingerprint is one executable plan. A cold statement is parsed and
// bound once and published under its fingerprint, stamped with the
// epoch captured before compilation so a racing InvalidatePlans refuses
// it.
func (s *Server) prepare(src string) (n *sql.Normalized, p plan, cached bool, err error) {
	if n, err = sql.Normalize(src); err != nil {
		return nil, plan{}, false, err
	}
	if v, ok := s.cache.Get(n.Fingerprint); ok {
		return n, v.(plan), true, nil
	}
	epoch := s.cache.Epoch()
	if p, err = compile(src); err != nil {
		return nil, plan{}, false, err
	}
	s.cache.Put(n.Fingerprint, p, epoch)
	return n, p, false, nil
}

// compile is the cold path: one parse, one bind.
func compile(src string) (plan, error) {
	stmt, err := sql.ParseStmt(src)
	if err != nil {
		return plan{}, err
	}
	return bind(stmt)
}

// bind checks the statement against the served table and picks its
// operator. Every name and the row arity are validated here, so a plan
// cannot fail on anything but its bind values.
func bind(stmt sql.Stmt) (plan, error) {
	var (
		op            opKind
		schema, table string
		cols          []string // every column the statement names
	)
	switch st := stmt.(type) {
	case *sql.Query:
		schema, table = st.Schema, st.Table
		cols = append(append(cols, st.Projections...), st.PredCol)
		switch st.Aggregate {
		case "count":
			op = opCount
		case "sum":
			op, cols = opSum, append(cols, st.AggrCol)
		default:
			op = opSelect
		}
	case *sql.Insert:
		op, schema, table, cols = opInsert, st.Schema, st.Table, st.Columns
	case *sql.Update:
		op, schema, table, cols = opUpdate, st.Schema, st.Table, []string{st.SetCol, st.PredCol}
	case *sql.Delete:
		op, schema, table, cols = opDelete, st.Schema, st.Table, []string{st.PredCol}
	}
	if schema != servedSchema || table != servedTable {
		return plan{}, compileErrorf("unknown table %s.%s", schema, table)
	}
	for _, col := range cols {
		if col != servedColumn {
			return plan{}, compileErrorf("unknown column %s.%s.%s", schema, table, col)
		}
	}
	if ins, ok := stmt.(*sql.Insert); ok && len(ins.Rows[0]) != 1 {
		// The parser already holds every row to the first row's width.
		return plan{}, compileErrorf("table %s.%s has 1 column, row has %d values",
			schema, table, len(ins.Rows[0]))
	}
	return plan{op: op}, nil
}

// run executes a plan with the statement's bind values. Cold and warm
// executions share this function, so cached execution is byte-identical
// to uncached execution by construction.
func (s *Server) run(t *tenant, p plan, binds []float64) (*Result, error) {
	res := &Result{}
	var err error
	switch p.op {
	case opCount:
		res.Count, res.Stats = t.col.Count(bindBounds(binds))
	case opSum:
		res.Count, res.Sum, res.Stats = t.col.Sum(bindBounds(binds))
	case opSelect:
		rows, st := t.col.SelectRows(bindBounds(binds))
		n := rows.Len()
		res.Count, res.Stats = int64(n), st
		if n > s.cfg.MaxRows {
			n, res.Truncated = s.cfg.MaxRows, true
		}
		if n > 0 {
			res.Rows = &Rows{chunked: rows, n: n}
		}
	default:
		err = s.runWrite(t.col, p.op, binds, res)
	}
	return res, err
}

// bindBounds maps a read's two float binds onto the facade's inclusive
// integer interval: the integers inside [lo, hi] are ceil(lo) ..
// floor(hi).
func bindBounds(binds []float64) (lo, hi int64) {
	return saturate(math.Ceil(binds[0])), saturate(math.Floor(binds[1]))
}

// saturate converts an integral float to int64, clamping to the int64
// range: a bare conversion of an out-of-range float is
// implementation-defined and turned `BETWEEN 0 AND 1e19` into an empty
// interval.
func saturate(f float64) int64 {
	switch {
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	}
	return int64(f)
}

// Explain prepares src exactly as Exec does and renders the plan run
// would execute for it: the operator, the served column, the integer
// interval the bind values map to and the facade method, e.g.
//
//	count sys.P.v [7, 9]: Column.Count
//
// Nothing runs. Statements other than SELECT explain as "".
func (s *Server) Explain(src string) (string, error) {
	n, p, _, err := s.prepare(src)
	if err != nil {
		return "", err
	}
	method, read := readMethod[p.op]
	if !read {
		return "", nil
	}
	lo, hi := bindBounds(n.Binds)
	return fmt.Sprintf("%s %s.%s.%s [%d, %d]: %s",
		p.op, servedSchema, servedTable, servedColumn, lo, hi, method), nil
}
