package sql

import (
	"errors"
	"strings"
	"testing"

	"selforg/internal/mal"
)

// TestParseStmtCorpus is the write-grammar companion of TestParseCorpus:
// every DML/DDL surface form and the malformed shapes found while
// hardening, with exact error positions. Accepted statements verify
// their canonical String rendering (which FuzzParseStmt proves stable).
func TestParseStmtCorpus(t *testing.T) {
	type want struct {
		// canon is the statement's canonical String() form ("" = error).
		canon   string
		errFrag string
		errOff  int
	}
	cases := []struct {
		name, src string
		want      want
	}{
		// --- CREATE TABLE ---
		{"create basic", "CREATE TABLE t (a, b)",
			want{canon: "CREATE TABLE t (a, b)"}},
		{"create with types", "create table T (A bigint, b_2 INT, c integer, d lng)",
			want{canon: "CREATE TABLE T (A, b_2, c, d)"}},
		{"create schema qualified", "CREATE TABLE s.t (a)",
			want{canon: "CREATE TABLE s.t (a)"}},
		{"create quoted keyword column", `CREATE TABLE t ("select")`,
			want{canon: `CREATE TABLE t ("select")`}},
		{"create trailing semicolon", "CREATE TABLE t (a);",
			want{canon: "CREATE TABLE t (a)"}},
		{"create duplicate column", "CREATE TABLE t (a, a)",
			want{errFrag: "duplicate column", errOff: 19}},
		{"create bad type", "CREATE TABLE t (a text)",
			want{errFrag: "unsupported column type", errOff: 18}},
		{"create empty columns", "CREATE TABLE t ()",
			want{errFrag: "expected identifier", errOff: 16}},
		{"create unclosed", "CREATE TABLE t (a",
			want{errFrag: `expected ")"`, errOff: 17}},

		// --- INSERT ---
		{"insert basic", "INSERT INTO t VALUES (1), (2.5), (-3)",
			want{canon: "INSERT INTO t VALUES (1), (2.5), (-3)"}},
		{"insert column list", "insert into t (a, b) values (1, 2), (3, 4);",
			want{canon: "INSERT INTO t (a, b) VALUES (1, 2), (3, 4)"}},
		{"insert schema qualified", "INSERT INTO other.T VALUES (9)",
			want{canon: "INSERT INTO other.T VALUES (9)"}},
		{"insert arity vs list", "INSERT INTO t (a) VALUES (1, 2)",
			want{errFrag: "row has 2 values, want 1", errOff: 25}},
		{"insert ragged rows", "INSERT INTO t VALUES (1), (2, 3)",
			want{errFrag: "row has 2 values, want 1", errOff: 26}},
		{"insert duplicate column", "INSERT INTO t (a, a) VALUES (1, 2)",
			want{errFrag: "duplicate column", errOff: 18}},
		{"insert non-number", "INSERT INTO t VALUES (a)",
			want{errFrag: "expected number", errOff: 22}},
		{"insert missing rows", "INSERT INTO t VALUES",
			want{errFrag: `expected "("`, errOff: 20}},
		{"insert keyword table", "INSERT INTO VALUES (1)",
			want{errFrag: "unexpected keyword", errOff: 12}},

		// --- UPDATE ---
		{"update basic", "UPDATE t SET a = 7 WHERE b = 2",
			want{canon: "UPDATE t SET a = 7 WHERE b = 2"}},
		{"update quoted idents", `update "from" set "set" = 1 where "where" = 2`,
			want{canon: `UPDATE "from" SET "set" = 1 WHERE "where" = 2`}},
		{"update fractional", "UPDATE t SET a = 1.5 WHERE b = -2e2",
			want{canon: "UPDATE t SET a = 1.5 WHERE b = -200"}},
		{"update non-number", "UPDATE t SET a = x WHERE b = 2",
			want{errFrag: "expected number", errOff: 17}},
		{"update missing equals", "UPDATE t SET a 7 WHERE b = 2",
			want{errFrag: `expected "="`, errOff: 15}},
		{"update missing where", "UPDATE t SET a = 7",
			want{errFrag: "expected WHERE", errOff: 18}},

		// --- DELETE ---
		{"delete basic", "DELETE FROM t WHERE c = 6",
			want{canon: "DELETE FROM t WHERE c = 6"}},
		{"delete default schema renders bare", "DELETE FROM sys.t WHERE c = 6",
			want{canon: "DELETE FROM t WHERE c = 6"}},
		{"delete missing from", "DELETE t WHERE c = 6",
			want{errFrag: "expected FROM", errOff: 7}},
		{"delete trailing garbage", "DELETE FROM t WHERE c = 6 extra",
			want{errFrag: "trailing input", errOff: 26}},

		// --- SELECT falls through to the read grammar ---
		{"select dispatch", "SELECT x FROM t WHERE v BETWEEN 1 AND 2",
			want{canon: "SELECT x FROM t WHERE v BETWEEN 1 AND 2"}},
		{"select error through ParseStmt", "SELECT x FROM t",
			want{errFrag: "expected WHERE", errOff: 15}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := ParseStmt(c.src)
			if c.want.errFrag == "" {
				if err != nil {
					t.Fatalf("ParseStmt(%q) = %v", c.src, err)
				}
				if got := s.String(); got != c.want.canon {
					t.Fatalf("ParseStmt(%q):\n  got  %s\n  want %s", c.src, got, c.want.canon)
				}
				return
			}
			if err == nil {
				t.Fatalf("ParseStmt(%q) accepted, want error %q", c.src, c.want.errFrag)
			}
			if !strings.Contains(err.Error(), c.want.errFrag) {
				t.Fatalf("ParseStmt(%q) error %q, want fragment %q", c.src, err, c.want.errFrag)
			}
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("ParseStmt(%q) error %T is not *SyntaxError", c.src, err)
			}
			if se.Offset != c.want.errOff {
				t.Fatalf("ParseStmt(%q) error offset %d, want %d (%v)", c.src, se.Offset, c.want.errOff, err)
			}
		})
	}
}

// TestDMLExecution drives a created table through the whole write
// stack: ParseStmt → GenerateDML → interpreter → catalog delta bats,
// then reads the table back through the ordinary SELECT pipeline.
func TestDMLExecution(t *testing.T) {
	cat := mal.NewMemCatalog()
	st, err := ParseStmt("CREATE TABLE t (a, b)")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTable)
	if err := cat.CreateTable(ct.Schema, ct.Table, ct.Columns); err != nil {
		t.Fatal(err)
	}
	if got := cat.ColumnsOf("sys", "t"); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("ColumnsOf = %v, want [a b]", got)
	}

	run := func(src string, args ...any) int64 {
		t.Helper()
		s, err := ParseStmt(src)
		if err != nil {
			t.Fatalf("ParseStmt(%q): %v", src, err)
		}
		prog, err := GenerateDML(s, cat)
		if err != nil {
			t.Fatalf("GenerateDML(%q): %v", src, err)
		}
		ctx, err := mal.NewInterp(cat, nil).Run(prog, args...)
		if err != nil {
			t.Fatalf("run %q:\n%s\n%v", src, prog.String(), err)
		}
		return ctx.Affected
	}
	// Column order comes from the table declaration when the INSERT
	// carries no list.
	if n := run("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)"); n != 3 {
		t.Fatalf("insert affected %d, want 3", n)
	}
	// An explicit list may reorder.
	if n := run("INSERT INTO t (b, a) VALUES (40, 4)"); n != 1 {
		t.Fatalf("insert affected %d, want 1", n)
	}
	if n := run("UPDATE t SET b = 99 WHERE a = 2", 2.0, 99.0); n != 1 {
		t.Fatalf("update affected %d, want 1", n)
	}
	if n := run("DELETE FROM t WHERE a = 1", 1.0); n != 1 {
		t.Fatalf("delete affected %d, want 1", n)
	}
	// Predicates that match nothing affect nothing.
	if n := run("UPDATE t SET b = 5 WHERE a = 77", 77.0, 5.0); n != 0 {
		t.Fatalf("no-match update affected %d, want 0", n)
	}
	if n := run("DELETE FROM t WHERE a = 77", 77.0); n != 0 {
		t.Fatalf("no-match delete affected %d, want 0", n)
	}

	// Read the table back through the ordinary SELECT pipeline: the
	// delta chain must show exactly the surviving rows, positionally
	// rejoined across both columns.
	q := MustParse("SELECT a, b FROM t WHERE a BETWEEN 0 AND 100")
	prog, err := Generate(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := mal.NewInterp(cat, nil).Run(prog, 0.0, 100.0)
	if err != nil {
		t.Fatalf("select:\n%s\n%v", prog.String(), err)
	}
	if len(ctx.Results) == 0 {
		t.Fatal("select exported no result set")
	}
	rs := ctx.Results[len(ctx.Results)-1]
	if rs.NumCols() != 2 {
		t.Fatalf("NumCols = %d, want 2", rs.NumCols())
	}
	got := map[int64]int64{}
	for r := 0; r < rs.NumRows(); r++ {
		got[rs.Column(0).Tail.Get(r).AsLng()] = rs.Column(1).Tail.Get(r).AsLng()
	}
	want := map[int64]int64{2: 99, 3: 30, 4: 40}
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for a, b := range want {
		if got[a] != b {
			t.Fatalf("rows = %v, want %v", got, want)
		}
	}
}

// TestGenerateDMLErrors pins the compile-side rejections: unknown
// tables and columns, arity mismatches, empty inserts.
func TestGenerateDMLErrors(t *testing.T) {
	cat := mal.NewMemCatalog()
	if err := cat.CreateTable("sys", "t", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ name, src, frag string }{
		{"unknown table insert", "INSERT INTO nope VALUES (1)", "nope"},
		{"unknown column insert", "INSERT INTO t (a, z) VALUES (1, 2)", "z"},
		{"unknown set column", "UPDATE t SET z = 1 WHERE a = 2", "z"},
		{"unknown pred column", "DELETE FROM t WHERE z = 1", "z"},
		{"arity short of table", "INSERT INTO t VALUES (1)", "1 values"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := ParseStmt(c.src)
			if err != nil {
				t.Fatalf("ParseStmt(%q): %v", c.src, err)
			}
			if _, err := GenerateDML(s, cat); err == nil {
				t.Fatalf("GenerateDML(%q) accepted, want error containing %q", c.src, c.frag)
			} else if !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("GenerateDML(%q) error %q, want fragment %q", c.src, err, c.frag)
			}
		})
	}
	// CreateTable itself must reject duplicates and redefinitions.
	if err := cat.CreateTable("sys", "t", []string{"x"}); err == nil {
		t.Fatal("redefining sys.t succeeded")
	}
	if err := cat.CreateTable("sys", "u", []string{"x", "x"}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if err := cat.CreateTable("sys", "u", nil); err == nil {
		t.Fatal("empty column list accepted")
	}
}

// FuzzParseStmt extends the FuzzParse round-trip guarantee to the write
// grammar: anything ParseStmt accepts must re-render (String) to a
// statement that parses to the same canonical form, and every rejection
// must carry an in-range offset.
func FuzzParseStmt(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseStmt(src)
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("ParseStmt(%q): error %T is not *SyntaxError: %v", src, err, err)
			}
			if se.Offset < 0 || se.Offset > len(src) {
				t.Fatalf("ParseStmt(%q): offset %d outside [0, %d]", src, se.Offset, len(src))
			}
			return
		}
		rendered := s.String()
		s2, err := ParseStmt(rendered)
		if err != nil {
			t.Fatalf("ParseStmt(%q) ok but re-parse of %q failed: %v", src, rendered, err)
		}
		if got := s2.String(); got != rendered {
			t.Fatalf("round trip unstable:\n  src      %q\n  render   %q\n  rerender %q", src, rendered, got)
		}
	})
}
