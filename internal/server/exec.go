package server

import (
	"fmt"
	"math"
	"strings"

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
	opCreate opKind = "create"
)

// plan is one bound statement: the operator that runs and where. A
// served plan reads every constant from the fingerprint's bind slots, so
// one plan serves every tenant and every constant instantiation of its
// shape — what the cache holds is what executes. A tenant-table plan
// keeps the parsed statement: its executor lowers it to MAL per call.
type plan struct {
	op     opKind
	served bool
	stmt   sql.Stmt
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
	// Columns and Tuples carry multi-column SELECT results (tenant
	// tables); single-column results use Rows.
	Columns []string  `json:"columns,omitempty"`
	Tuples  [][]int64 `json:"tuples,omitempty"`
	// Truncated reports that Rows/Tuples was capped at Config.MaxRows;
	// Count still carries the full cardinality.
	Truncated   bool          `json:"truncated,omitempty"`
	Stats       selforg.Stats `json:"stats"`
	Cached      bool          `json:"cached"`
	Fingerprint string        `json:"fingerprint"`
	Tenant      string        `json:"tenant"`
	// Plan is the optimized MAL text ?explain=1 asks for.
	Plan string `json:"plan,omitempty"`
}

// Exec runs one statement for the named tenant — the single statement
// path: normalize (one lex pass: fingerprint + binds) → plan cache → on
// a miss parse and bind once → run. It is the admission-free core: the
// HTTP layer adds the gate, Exec is what benchmarks and in-process
// callers use. Only SELECT shapes consult the cache; a write's
// constants are the write, so writes compile per call and their
// fingerprints exist for observability.
func (s *Server) Exec(tenant, src string) (*Result, error) {
	n, err := sql.Normalize(src)
	if err != nil {
		return nil, err
	}
	var (
		p      plan
		cached bool
	)
	if strings.HasPrefix(n.Fingerprint, "SELECT ") {
		var v any
		if v, cached = s.cache.Get(n.Fingerprint); cached {
			p = v.(plan)
		}
	}
	if !cached {
		if p, err = s.compile(src, n.Fingerprint); err != nil {
			return nil, err
		}
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

// compile is the cold path: one parse, one bind, and — for reads of the
// served table — publication under the fingerprint, stamped with the
// epoch captured before compilation so a racing InvalidatePlans refuses
// it. Tenant catalogs diverge, so one fingerprint would not mean one
// plan there; those statements are never published.
func (s *Server) compile(src, fingerprint string) (plan, error) {
	epoch := s.cache.Epoch()
	stmt, err := sql.ParseStmt(src)
	if err != nil {
		return plan{}, err
	}
	p, err := s.bind(stmt)
	if err != nil {
		return plan{}, err
	}
	if _, read := stmt.(*sql.Query); read && p.served {
		s.cache.Put(fingerprint, p, epoch)
	}
	return p, nil
}

// bind resolves the statement's target and picks its operator. Against
// the served table it validates every name and the row arity here, so a
// served plan cannot fail on anything but its bind values; names of a
// tenant's own table resolve under that catalog's lock when the plan
// runs.
func (s *Server) bind(stmt sql.Stmt) (plan, error) {
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
	case *sql.CreateTable:
		op, schema, table = opCreate, st.Schema, st.Table
	}
	if schema != s.cfg.Schema || table != s.cfg.Table {
		return plan{op: op, stmt: stmt}, nil
	}
	if op == opCreate {
		return plan{}, compileErrorf("table %s.%s already exists", schema, table)
	}
	for _, col := range cols {
		if col != s.cfg.Column {
			return plan{}, compileErrorf("unknown column %s.%s.%s", schema, table, col)
		}
	}
	if ins, ok := stmt.(*sql.Insert); ok && len(ins.Rows[0]) != 1 {
		// The parser already holds every row to the first row's width.
		return plan{}, compileErrorf("table %s.%s has 1 column, row has %d values",
			schema, table, len(ins.Rows[0]))
	}
	return plan{op: op, served: true}, nil
}

// run executes a plan with the statement's bind values. Cold and warm
// executions share this function, so cached execution is byte-identical
// to uncached execution by construction.
func (s *Server) run(t *tenant, p plan, binds []float64) (*Result, error) {
	if !p.served {
		return s.runTenant(t, p)
	}
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
// floor(hi), matching the MAL plan's dbl-typed A0/A1 parameters
// evaluated over integer values.
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

// Explain returns the optimized MAL text the paper's pipeline compiles
// the default tenant's SELECT src to. Nothing on the served path
// executes or keeps this program; it is generated on request only.
func (s *Server) Explain(src string) (string, error) { return s.explain("", src) }

// explain is Explain for a named tenant (the ?explain= form of /sql).
// Statements other than SELECT have no read plan and explain as "".
func (s *Server) explain(tenant, src string) (string, error) {
	stmt, err := sql.ParseStmt(src)
	if err != nil {
		return "", err
	}
	q, ok := stmt.(*sql.Query)
	if !ok {
		return "", nil
	}
	cat := s.cat
	if q.Schema != s.cfg.Schema || q.Table != s.cfg.Table {
		t, err := s.tenantEntry(tenant)
		if err != nil {
			return "", err
		}
		t.cmu.RLock()
		defer t.cmu.RUnlock()
		cat = t.cat
	}
	prog, err := lower(q, cat)
	if err != nil {
		return "", err
	}
	return prog.String(), nil
}
