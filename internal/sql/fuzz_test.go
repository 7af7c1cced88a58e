package sql

import (
	"errors"
	"testing"
)

// fuzzSeeds is the shared seed corpus: every surface form plus the
// malformed shapes the corpus test pins down.
var fuzzSeeds = []string{
	"SELECT objid FROM P WHERE ra BETWEEN 205.1 AND 205.12",
	"select objid, dec from sys.P where ra between -1e3 and .5;",
	"SELECT COUNT(*) FROM P WHERE ra BETWEEN 0 AND 360",
	"SELECT SUM(dec) FROM other.T WHERE ra BETWEEN 1E+2 AND 1E+3",
	`SELECT "select", "a b" FROM "from" WHERE "where" BETWEEN 5. AND 6.`,
	`SELECT x FROM "a.b" WHERE v BETWEEN -0.5 AND 0.5`,
	"SELECT x FROM t WHERE v BETWEEN 1.2.3 AND 9",
	"SELECT 'lit FROM t WHERE v BETWEEN 1 AND 2",
	"SELECT x FROM t WHERE v BETWEEN 2 AND 1",
	"SELECT\tx\nFROM\r\nt WHERE v\nBETWEEN 1 AND 2",
	";", "", "SELECT", "sElEcT x FrOm T wHeRe V bEtWeEn 1 aNd 2",
	// Write surface (rejected by Parse, the full grammar for ParseStmt;
	// CREATE is rejected by both).
	"CREATE TABLE t (a, b)",
	"create table s.t (a bigint, b int);",
	"CREATE TABLE t (a, a)",
	"INSERT INTO t VALUES (1), (2.5), (-3)",
	"insert into t (a, b) values (1, 2), (3, 4);",
	"INSERT INTO t (a) VALUES (1, 2)",
	"UPDATE t SET a = 7 WHERE b = 2",
	`update "from" set "set" = 1 where "where" = 2`,
	"DELETE FROM t WHERE c = 6",
	"DELETE FROM t WHERE c = 6 extra",
}

// FuzzParse asserts parse→String→parse round-trip stability: any input
// Parse accepts must re-render to a statement that parses to the same
// query, and any rejection must be a positioned *SyntaxError whose
// offset lies inside the input.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("Parse(%q): error %T is not *SyntaxError: %v", src, err, err)
			}
			if se.Offset < 0 || se.Offset > len(src) {
				t.Fatalf("Parse(%q): offset %d outside [0, %d]", src, se.Offset, len(src))
			}
			return
		}
		rendered := q.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("Parse(%q) ok but re-parse of %q failed: %v", src, rendered, err)
		}
		if got := q2.String(); got != rendered {
			t.Fatalf("round trip unstable:\n  src      %q\n  render   %q\n  rerender %q", src, rendered, got)
		}
	})
}

// FuzzNormalize asserts that normalization is idempotent across bind
// restoration: restoring a fingerprint's own constants and normalizing
// again yields the same fingerprint. The other half of the plan-cache
// invariant — one fingerprint binds to one plan — is checked on the
// plans the cache holds, by internal/server's FuzzPlanCache.
func FuzzNormalize(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Normalize(src)
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("Normalize(%q): error %T is not *SyntaxError", src, err)
			}
			return
		}
		restored := RestoreBinds(n.Fingerprint, n.Binds)
		n2, err := Normalize(restored)
		if err != nil {
			t.Fatalf("Normalize(%q) ok but restored %q fails: %v", src, restored, err)
		}
		if n2.Fingerprint != n.Fingerprint {
			t.Fatalf("fingerprint drift:\n  src  %q -> %q\n  rest %q -> %q", src, n.Fingerprint, restored, n2.Fingerprint)
		}
	})
}
