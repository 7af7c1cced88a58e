// Package malgen is the SQL → MAL code generator of the paper's
// compilation stack (§2): "The compilation stack consists of three
// components: SQL-MAL code generator, a tactical optimizer, and the run
// time engine." It compiles the range-selection query class that
// internal/sql parses —
//
//	SELECT objid FROM P WHERE ra BETWEEN 205.1 AND 205.12
//	SELECT COUNT(*) FROM P WHERE ra BETWEEN 205.1 AND 205.12
//	SELECT SUM(dec) FROM P WHERE ra BETWEEN 205.1 AND 205.12
//
// — into MAL plans of exactly the Figure-1 shape (delta-bat merge,
// deletion masking, oid renumbering, per-column rejoin, result export).
// The generated plan then flows through the tactical optimizer
// (internal/opt), where the segment pass applies the §3.1 rewriting if
// the predicate column is segmented. cmd/malrun is its driver; the
// query service never links it.
package malgen

import (
	"fmt"
	"strings"

	"selforg/internal/bat"
	"selforg/internal/mal"
	"selforg/internal/sql"
)

// Generate compiles the query into a MAL plan of the Figure-1 shape. The
// catalog validates the referenced columns and supplies their SQL type
// names for the result-set metadata. The produced plan is a
// two-parameter function (A0, A1 — the predicate bounds), exactly like
// the cached plan of Figure 1; execute it with Interp.Run(prog, lo, hi).
func Generate(q *sql.Query, cat mal.Catalog) (*mal.Program, error) {
	g := &gen{q: q, cat: cat}
	return g.generate()
}

// Compile is the whole §2 stack front half: parse + generate.
func Compile(src string, cat mal.Catalog) (*sql.Query, *mal.Program, error) {
	q, err := sql.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	prog, err := Generate(q, cat)
	if err != nil {
		return nil, nil, err
	}
	return q, prog, nil
}

type gen struct {
	q    *sql.Query
	cat  mal.Catalog
	b    strings.Builder
	next int
}

// v allocates a fresh plan variable.
func (g *gen) v() string {
	g.next++
	return fmt.Sprintf("X%d", g.next)
}

func (g *gen) emitf(format string, args ...any) {
	fmt.Fprintf(&g.b, format+"\n", args...)
}

// columnKind validates the column and returns its tail kind.
func (g *gen) columnKind(col string) (bat.Kind, error) {
	b, err := g.cat.Bind(g.q.Schema, g.q.Table, col, 0)
	if err != nil {
		return 0, err
	}
	return b.TailKind(), nil
}

// sqlTypeName maps an atom kind to the SQL type label used by rsColumn.
func sqlTypeName(k bat.Kind) string {
	switch k {
	case bat.KLng:
		return "bigint"
	case bat.KDbl:
		return "double"
	case bat.KStr:
		return "varchar"
	case bat.KOid:
		return "oid"
	default:
		return k.String()
	}
}

// deltaChain emits the §2 delta merge for a column — base + inserts,
// minus updated heads, plus updates — and returns the variable holding
// the merged [oid, value] bat. For the predicate column, sel restricts
// every leg to the selection bounds first (the Figure-1 pattern).
func (g *gen) deltaChain(col string, sel bool) string {
	base, ins, upd := g.v(), g.v(), g.v()
	g.emitf("%s := sql.bind(%q,%q,%q,0);", base, g.q.Schema, g.q.Table, col)
	g.emitf("%s := sql.bind(%q,%q,%q,1);", ins, g.q.Schema, g.q.Table, col)
	g.emitf("%s := sql.bind(%q,%q,%q,2);", upd, g.q.Schema, g.q.Table, col)
	if sel {
		sb, si := g.v(), g.v()
		g.emitf("%s := algebra.uselect(%s,A0,A1,true,true);", sb, base)
		g.emitf("%s := algebra.uselect(%s,A0,A1,true,true);", si, ins)
		u := g.v()
		g.emitf("%s := algebra.kunion(%s,%s);", u, sb, si)
		masked := g.v()
		g.emitf("%s := algebra.kdifference(%s,%s);", masked, u, upd)
		su := g.v()
		g.emitf("%s := algebra.uselect(%s,A0,A1,true,true);", su, upd)
		out := g.v()
		g.emitf("%s := algebra.kunion(%s,%s);", out, masked, su)
		return out
	}
	u := g.v()
	g.emitf("%s := algebra.kunion(%s,%s);", u, base, ins)
	masked := g.v()
	g.emitf("%s := algebra.kdifference(%s,%s);", masked, u, upd)
	out := g.v()
	g.emitf("%s := algebra.kunion(%s,%s);", out, masked, upd)
	return out
}

func (g *gen) generate() (*mal.Program, error) {
	q := g.q
	if _, err := g.columnKind(q.PredCol); err != nil {
		return nil, err
	}
	g.emitf("function user.q0(A0:dbl,A1:dbl):void;")

	// Predicate evaluation over the delta bats, Figure-1 style, then
	// deletion masking.
	qualified := g.deltaChain(q.PredCol, true)
	live := g.maskDeletes(qualified)

	switch q.Aggregate {
	case "count":
		c := g.v()
		g.emitf("%s := aggr.count(%s);", c, live)
		g.emitf("io.print(%s);", c)

	case "sum":
		if _, err := g.columnKind(q.AggrCol); err != nil {
			return nil, err
		}
		renumbered := g.renumber(live)
		col := g.deltaChain(q.AggrCol, false)
		joined := g.v()
		g.emitf("%s := algebra.join(%s,%s);", joined, renumbered, col)
		s := g.v()
		g.emitf("%s := aggr.sum(%s);", s, joined)
		g.emitf("io.print(%s);", s)

	default:
		if len(q.Projections) == 0 {
			return nil, fmt.Errorf("malgen: no projections")
		}
		kinds := make([]bat.Kind, len(q.Projections))
		for i, col := range q.Projections {
			k, err := g.columnKind(col)
			if err != nil {
				return nil, err
			}
			kinds[i] = k
		}
		renumbered := g.renumber(live)
		joins := make([]string, len(q.Projections))
		for i, col := range q.Projections {
			merged := g.deltaChain(col, false)
			joins[i] = g.v()
			g.emitf("%s := algebra.join(%s,%s);", joins[i], renumbered, merged)
		}
		rs := g.v()
		g.emitf("%s := sql.resultSet(%d,1,%s);", rs, len(q.Projections), joins[0])
		for i, col := range q.Projections {
			g.emitf("sql.rsColumn(%s,%q,%q,%q,64,0,%s);",
				rs, q.Schema+"."+q.Table, col, sqlTypeName(kinds[i]), joins[i])
		}
		g.emitf("sql.exportResult(%s,\"\");", rs)
	}
	g.emitf("end q0;")
	return g.parse()
}

// maskDeletes emits the deletion-bat mask of Figure 1: the reversed
// dbat kdifferenced away from the qualifying rows.
func (g *gen) maskDeletes(qualified string) string {
	dbat, rev, live := g.v(), g.v(), g.v()
	g.emitf("%s := sql.bind_dbat(%q,%q,1);", dbat, g.q.Schema, g.q.Table)
	g.emitf("%s := bat.reverse(%s);", rev, dbat)
	g.emitf("%s := algebra.kdifference(%s,%s);", live, qualified, rev)
	return live
}

// renumber emits the markT/reverse pair of Figure 1, yielding the
// [dense-oid, original-oid] renumbering bat used to rejoin columns.
func (g *gen) renumber(live string) string {
	zero, marked, out := g.v(), g.v(), g.v()
	g.emitf("%s := calc.oid(0@0);", zero)
	g.emitf("%s := algebra.markT(%s,%s);", marked, live, zero)
	g.emitf("%s := bat.reverse(%s);", out, marked)
	return out
}

// parse turns the emitted text into a program; a failure is a bug in
// the generator, reported with the text.
func (g *gen) parse() (*mal.Program, error) {
	prog, err := mal.Parse(g.b.String())
	if err != nil {
		return nil, fmt.Errorf("malgen: generated invalid MAL: %w\n%s", err, g.b.String())
	}
	return prog, nil
}
