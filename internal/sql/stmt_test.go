package sql

import (
	"errors"
	"strings"
	"testing"
)

// TestParseStmtCorpus is the write-grammar companion of TestParseCorpus:
// every DML surface form, the rejected DDL forms, and the malformed
// shapes found while hardening, with exact error positions. Accepted statements verify
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
		// --- CREATE TABLE: no DDL; every form fails at its first token ---
		{"create basic", "CREATE TABLE t (a, b)",
			want{errFrag: "expected SELECT", errOff: 0}},
		{"create with types", "create table T (A bigint, b_2 INT, c integer, d lng)",
			want{errFrag: "expected SELECT", errOff: 0}},
		{"create schema qualified", "CREATE TABLE s.t (a)",
			want{errFrag: "expected SELECT", errOff: 0}},
		{"create quoted keyword column", `CREATE TABLE t ("select")`,
			want{errFrag: "expected SELECT", errOff: 0}},
		{"create trailing semicolon", "CREATE TABLE t (a);",
			want{errFrag: "expected SELECT", errOff: 0}},
		{"create duplicate column", "CREATE TABLE t (a, a)",
			want{errFrag: "expected SELECT", errOff: 0}},
		{"create bad type", "CREATE TABLE t (a text)",
			want{errFrag: "expected SELECT", errOff: 0}},
		{"create empty columns", "CREATE TABLE t ()",
			want{errFrag: "expected SELECT", errOff: 0}},
		{"create unclosed", "CREATE TABLE t (a",
			want{errFrag: "expected SELECT", errOff: 0}},

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
