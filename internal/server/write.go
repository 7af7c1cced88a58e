// The write half of the one executor (exec.go): DML on sys.P(v) runs
// Column.Insert/Update/Delete on the tenant's facade column, so SQL
// writes flow through the MVCC delta store and, when durability is on,
// the group committer — a 200 means the write is in the WAL and
// survives SIGKILL.
//
// Write statements are plan-cached like reads: a write plan is only its
// operator, and runWrite takes every value from the bind slots, so one
// fingerprint is one executable plan.
package server

import (
	"fmt"
	"math"

	"selforg"
)

// WriteError wraps a write rejected for a client-side reason — a value
// outside the column extent. The HTTP layer maps it (like
// *CompileError) to 400.
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
