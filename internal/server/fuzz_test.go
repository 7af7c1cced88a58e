package server

import (
	"testing"

	"selforg/internal/sql"
)

// planCacheSeeds are internal/sql's fuzz seeds — every surface form plus
// the malformed shapes its corpus tests pin down — and the served
// column's own read shapes.
var planCacheSeeds = []string{
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
	"SELECT v FROM P WHERE v BETWEEN 100 AND 102",
	"select count(*) from sys.P where v between 7.5 and 9;",
	`SELECT SUM("v") FROM "P" WHERE v BETWEEN -1e19 AND 1e19`,
	"SELECT v FROM P WHERE v BETWEEN 9 AND 7",
}

// FuzzPlanCache holds the plan cache's invariant on what it holds: a
// cached plan is found by fingerprint alone, so every statement — read
// or write — must compile to the same plan as its fingerprint with fresh
// constants restored, or both must fail with the same error kind.
// Otherwise a warm request would answer what a cold one rejects, or run
// another operator.
func FuzzPlanCache(f *testing.F) {
	for _, s := range planCacheSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := sql.Normalize(src)
		if err != nil {
			return
		}
		fresh := make([]float64, len(n.Binds))
		for i := range fresh {
			fresh[i] = float64(i) // 0, 1, ... keeps BETWEEN bounds ordered
		}
		restored := sql.RestoreBinds(n.Fingerprint, fresh)
		p1, err1 := compile(src)
		p2, err2 := compile(restored)
		if p1 != p2 || errorKind(err1) != errorKind(err2) {
			t.Fatalf("one fingerprint, two plans:\n  %q -> %v, %v\n  %q -> %v, %v",
				src, p1, err1, restored, p2, err2)
		}
	})
}
