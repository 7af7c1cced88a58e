// The two executors behind the one statement path (exec.go). Every
// statement takes the same front — normalize → cache → parse → bind —
// and differs only in what runs its plan:
//
//   - The served table (Config.Schema/Table/Column) is the tenant's
//     facade column. Reads run Column.Count/SelectRows (exec.go); DML
//     runs Column.Insert/Update/Delete here — so SQL writes flow
//     through the MVCC delta store and, when durability is on, the
//     group committer: a 200 means the write is in the WAL and survives
//     SIGKILL. No MAL is generated or executed on this side.
//   - CREATE TABLE-d tables live in the tenant's private MemCatalog and
//     have no other backend than the paper's stack: every statement on
//     them is lowered (sql.Generate / sql.GenerateDML), optimized and
//     interpreted per call under the catalog lock. Write predicates
//     evaluate through the Figure-1 delta-bat merge and feed
//     sql.updateRows/deleteRows; SELECTs rejoin columns positionally
//     with algebra.join.
//
// Write statements are never plan-cached: constants are part of the
// write, so one fingerprint does not mean one executable plan, and a
// stale cached write would be a correctness bug rather than a slow
// query. Their fingerprints are still computed for observability.
package server

import (
	"fmt"
	"math"

	"selforg"
	"selforg/internal/bat"
	"selforg/internal/mal"
	"selforg/internal/opt"
	"selforg/internal/sql"
)

// WriteError wraps a write rejected for a client-side reason — a value
// outside the column extent, a write to a missing table or column. The
// HTTP layer maps it (like *CompileError) to 400.
type WriteError struct{ Err error }

func (e *WriteError) Error() string { return e.Err.Error() }
func (e *WriteError) Unwrap() error { return e.Err }

// runWrite executes a served-table DML operator over its bind slots,
// in source order: INSERT's row values; UPDATE's (set, predicate);
// DELETE's predicate. Every value is checked before the first one is
// applied, so a rejected statement changes nothing. Each row is one
// facade write — riding the group committer when the tenant is durable.
func (s *Server) runWrite(col *selforg.Column, op opKind, binds []float64, res *Result) error {
	vals := make([]int64, len(binds))
	for i, f := range binds {
		if f != math.Trunc(f) || f < math.MinInt64 || f >= math.MaxInt64 {
			return compileErrorf("value %g is not a bigint", f)
		}
		vals[i] = int64(f)
		if op == opInsert && (vals[i] < s.cfg.Extent.Lo || vals[i] > s.cfg.Extent.Hi) {
			return &WriteError{Err: fmt.Errorf("insert value %d outside extent [%d, %d]",
				vals[i], s.cfg.Extent.Lo, s.cfg.Extent.Hi)}
		}
	}
	var (
		hit bool
		err error
	)
	switch op {
	case opInsert:
		for _, v := range vals {
			st, err := col.Insert(v)
			if err != nil {
				return err
			}
			res.Stats.Add(st)
			res.Count++
		}
		return nil
	case opUpdate:
		// One visible occurrence, cross-shard atomic.
		hit, res.Stats, err = col.Update(vals[1], vals[0])
	case opDelete:
		hit, res.Stats, err = col.Delete(vals[0])
	}
	if hit {
		res.Count = 1
	}
	return err
}

// lower is the paper's §2 front half for one statement: SQL → MAL
// codegen → tactical optimization against cat. It has two callers:
// tenant table execution and Explain.
func lower(stmt sql.Stmt, cat mal.Catalog) (prog *mal.Program, err error) {
	if q, ok := stmt.(*sql.Query); ok {
		prog, err = sql.Generate(q, cat)
	} else {
		prog, err = sql.GenerateDML(stmt, cat)
	}
	if err == nil {
		err = opt.Default().Optimize(prog, &opt.Context{Catalog: cat})
	}
	if err != nil {
		return nil, &CompileError{Err: err}
	}
	return prog, nil
}

// runTenant executes a statement on a table of the tenant's private
// catalog: lower → interpret, per call, under the catalog lock
// (MemCatalog is not safe for concurrent mutation: reads share it,
// writes own it).
func (s *Server) runTenant(t *tenant, p plan) (*Result, error) {
	_, read := p.stmt.(*sql.Query)
	if read {
		t.cmu.RLock()
		defer t.cmu.RUnlock()
	} else {
		t.cmu.Lock()
		defer t.cmu.Unlock()
	}
	res := &Result{}
	var args []any
	switch st := p.stmt.(type) {
	case *sql.CreateTable:
		if err := t.cat.CreateTable(st.Schema, st.Table, st.Columns); err != nil {
			return nil, &CompileError{Err: err}
		}
		return res, nil
	case *sql.Query:
		args = []any{st.Lo, st.Hi}
	case *sql.Update:
		args = []any{st.PredVal, st.SetVal}
	case *sql.Delete:
		args = []any{st.PredVal}
	}
	prog, err := lower(p.stmt, t.cat)
	if err != nil {
		return nil, err
	}
	ctx, err := mal.NewInterp(t.cat, nil).Run(prog, args...)
	if err != nil {
		if !read {
			// Every reachable run failure of a write is a schema/data
			// mismatch (missing column in an INSERT list, type
			// mismatch) — the client's fault.
			err = &WriteError{Err: err}
		}
		return nil, err
	}
	switch p.op {
	case opCount:
		res.Count = aggrValue(prog, ctx)
	case opSum:
		res.Sum = aggrValue(prog, ctx)
	case opSelect:
		if len(ctx.Results) == 0 {
			return nil, fmt.Errorf("plan exported no result set")
		}
		rs := ctx.Results[len(ctx.Results)-1]
		n, cols := rs.NumRows(), rs.NumCols()
		res.Count = int64(n)
		if n > s.cfg.MaxRows {
			n, res.Truncated = s.cfg.MaxRows, true
		}
		res.Columns = make([]string, cols)
		for c := range res.Columns {
			res.Columns[c] = rs.ColumnName(c)
		}
		res.Tuples = make([][]int64, n)
		for r := range res.Tuples {
			res.Tuples[r] = make([]int64, cols)
			for c := range res.Tuples[r] {
				res.Tuples[r][c] = lngOf(rs.Column(c).Tail.Get(r))
			}
		}
		if cols == 1 && n > 0 {
			flat := make([]int64, n)
			for r := range flat {
				flat[r] = res.Tuples[r][0]
			}
			res.Rows = NewRows(flat)
		}
	default:
		res.Count = ctx.Affected
	}
	return res, nil
}

// aggrValue pulls the aggregate operator's result out of the finished
// context: the generated plan binds it to the aggr.* call's target.
func aggrValue(prog *mal.Program, ctx *mal.Context) int64 {
	for i := range prog.Instrs {
		e := prog.Instrs[i].Expr
		if e != nil && e.IsCall() && e.Module == "aggr" {
			if v, ok := ctx.Get(prog.Instrs[i].Target); ok {
				switch v := v.(type) {
				case int64:
					return v
				case float64:
					return int64(v)
				case bat.Value:
					return lngOf(v)
				}
			}
		}
	}
	return 0
}

// lngOf renders a bat value as the wire's bigint.
func lngOf(v bat.Value) int64 {
	switch v.K {
	case bat.KLng:
		return v.AsLng()
	case bat.KDbl:
		return int64(v.AsDbl())
	case bat.KOid:
		return int64(v.AsOid())
	default:
		return 0
	}
}
