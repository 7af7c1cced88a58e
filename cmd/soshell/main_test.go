package main

import (
	"bufio"
	"strings"
	"testing"
)

func newTestShell() (*shell, *strings.Builder) {
	var sb strings.Builder
	sh := &shell{
		lo: 0, hi: 999_999,
		out: bufio.NewWriter(&sb),
	}
	return sh, &sb
}

func run(t *testing.T, sh *shell, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if err := sh.exec(l); err != nil {
			t.Fatalf("%q: %v", l, err)
		}
	}
	sh.out.Flush()
}

func TestShellFullSession(t *testing.T) {
	sh, out := newTestShell()
	run(t, sh,
		"gen 10000 0 99999 7",
		"strategy segmentation",
		"model apm 512 2048",
		"build",
		"select 10000 29999",
		"select 10000 29999",
		"layout",
		"totals",
	)
	text := out.String()
	for _, want := range []string{"generated 10000 values", "built", "rows;", "queries 2"} {
		if !strings.Contains(text, want) {
			t.Errorf("session output missing %q:\n%s", want, text)
		}
	}
	if sh.col.SegmentCount() < 2 {
		t.Error("shell column never adapted")
	}
}

func TestShellReplicationAndGlueRejected(t *testing.T) {
	sh, _ := newTestShell()
	run(t, sh, "gen 1000 0 9999", "strategy repl", "model gd 5", "build", "select 100 500")
	if err := sh.exec("glue 100"); err == nil {
		t.Error("glue on replication column accepted")
	}
}

func TestShellGlue(t *testing.T) {
	sh, _ := newTestShell()
	run(t, sh, "gen 20000 0 99999", "model apm 64 256", "build")
	for i := 0; i < 30; i++ {
		run(t, sh, "select 5000 7000")
	}
	run(t, sh, "glue 512")
}

func TestShellErrors(t *testing.T) {
	sh, _ := newTestShell()
	cases := []string{
		"select 1 2",     // no column
		"build",          // no data
		"gen 10",         // missing args
		"gen x 0 10",     // bad number
		"strategy bogus", // unknown strategy
		"model bogus",    // unknown model
		"layout",         // no column
		"totals",         // no column
		"frobnicate",     // unknown command
		"gen 10 100 100", // empty domain
	}
	for _, c := range cases {
		if err := sh.exec(c); err == nil {
			t.Errorf("%q: expected error", c)
		}
	}
}

func TestShellDeltaWrites(t *testing.T) {
	sh, out := newTestShell()
	run(t, sh,
		"gen 1000 0 9999 3",
		"model apm 512 2048",
		"build",
		"count 0 9999",
		"insert 42",
		"insert 43",
		"update 42 77",
		"delete 43",
		"delta",
		"merge",
		"count 0 9999",
		"delta",
	)
	text := out.String()
	for _, want := range []string{
		"inserted 42", "updated 42 -> 77", "deleted 43",
		"inserts 2, updates 1, deletes 1",
		"merged",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("delta session output missing %q:\n%s", want, text)
		}
	}
	// Net content: 1000 base + insert 42 (updated to 77); 43 cancelled.
	if n, _ := sh.col.Count(0, 9999); n != 1001 {
		t.Errorf("post-merge count = %d, want 1001", n)
	}
	if err := sh.exec("delete 424242"); err == nil {
		t.Error("delete of absent value accepted")
	}
	if err := sh.exec("insert 99999999"); err == nil {
		t.Error("insert outside extent accepted")
	}
}

func TestShellHelp(t *testing.T) {
	sh, out := newTestShell()
	run(t, sh, "help")
	if !strings.Contains(out.String(), "commands:") {
		t.Error("help output missing")
	}
}

func TestShellModelNone(t *testing.T) {
	sh, _ := newTestShell()
	run(t, sh, "gen 1000 0 9999", "model none", "build", "select 0 9999")
	if sh.col.SegmentCount() != 1 {
		t.Error("none model adapted")
	}
}

func TestShellPinnedViewSurvivesMerge(t *testing.T) {
	// The pin/unpin session demonstrates the PR-5 snapshot guarantee on
	// a replication column: the pinned view's count never moves while
	// writes land and merge-backs rewrite the replica tree under it.
	sh, out := newTestShell()
	run(t, sh,
		"gen 1000 0 9999 3",
		"strategy replication",
		"model apm 64 256",
		"build",
		"select 1000 4999",
		"pin before",
		"view before 0 9999",
		"insert 42",
		"insert 43",
		"merge",
		"view before 0 9999",
		"unpin before",
	)
	text := out.String()
	if !strings.Contains(text, "pinned view \"before\"") {
		t.Fatalf("pin output missing:\n%s", text)
	}
	if strings.Count(text, "1000 rows as of watermark") != 2 {
		t.Fatalf("pinned view drifted across the merge:\n%s", text)
	}
	if !strings.Contains(text, "unpinned \"before\"") {
		t.Fatalf("unpin output missing:\n%s", text)
	}
	// The live column sees both inserts.
	if n, _ := sh.col.Count(0, 9999); n != 1002 {
		t.Fatalf("live count = %d, want 1002", n)
	}
	if err := sh.exec("view before 0 9999"); err == nil {
		t.Error("view of unpinned name accepted")
	}
	if err := sh.exec("unpin nosuch"); err == nil {
		t.Error("unpin of unknown name accepted")
	}
}

func TestShellDurableSession(t *testing.T) {
	dir := t.TempDir()
	sh, out := newTestShell()
	run(t, sh,
		"gen 1000 0 9999 3",
		"model apm 512 2048",
		"wal on "+dir,
		"build",
		"insert 42",
		"insert 43",
		"delete 43",
		"wal stats",
		"checkpoint",
		"insert 44",
		"recover",
		"wal stats",
		"count 0 9999",
	)
	text := out.String()
	for _, want := range []string{
		"durability on: WAL under " + dir,
		"groups 3 (3 records",
		"checkpointed at seq",
		"logs truncated (0 B on disk)",
		"recovered: replayed 1 batches",
		"1002 rows", // 1000 base + 42 + 44; 43 cancelled
	} {
		if !strings.Contains(text, want) {
			t.Errorf("durable session output missing %q:\n%s", want, text)
		}
	}
	// The recovered column keeps serving writes.
	run(t, sh, "insert 45")
	if n, _ := sh.col.Count(0, 9999); n != 1003 {
		t.Errorf("post-recover count = %d, want 1003", n)
	}

	// wal off takes effect at the next build: an in-memory column again.
	run(t, sh, "wal off", "build")
	if err := sh.exec("wal stats"); err == nil {
		t.Error("wal stats on in-memory column accepted")
	}
	if err := sh.exec("checkpoint"); err == nil {
		t.Error("checkpoint on in-memory column accepted")
	}
	if err := sh.exec("recover"); err == nil {
		t.Error("recover on in-memory column accepted")
	}
	for _, c := range []string{"wal", "wal on", "wal bogus", "wal on d extra"} {
		if err := sh.exec(c); err == nil {
			t.Errorf("%q: expected error", c)
		}
	}
}

func TestShellObservability(t *testing.T) {
	// metrics/trace/events read the process-wide default observer the
	// shell's columns attach to.
	sh, out := newTestShell()
	run(t, sh,
		"gen 5000 0 99999 11",
		"model apm 512 2048",
		"trace on 1 250",
		"build",
		"select 10000 29999",
		"select 10000 29999",
		"trace show",
		"events",
		"metrics",
		"trace off",
	)
	text := out.String()
	for _, want := range []string{
		"tracing 1 in 1 queries",
		"select/segm shard 0 [10000, 29999]",
		"split segm/shard 0",
		"# TYPE selforg_queries_total counter",
		"selforg_adaptation_events_total{kind=\"split\"",
		"tracing off",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("observability session output missing %q:\n%s", want, text)
		}
	}
	if err := sh.exec("trace bogus"); err == nil {
		t.Error("bad trace subcommand accepted")
	}
	if err := sh.exec("trace"); err == nil {
		t.Error("bare trace accepted")
	}
}

// TestShellSQL walks the `sql` command's statement classes in order on
// one 1000-row column over [0, 999]. The statements are rows of
// internal/server's TestExecStatementMatrix where one input serves both:
// the shell has no executor of its own, so what the server's statement
// path guarantees (saturating bounds, all-or-nothing INSERT) must show
// here too.
func TestShellSQL(t *testing.T) {
	sh, out := newTestShell()
	run(t, sh, "gen 1000 0 999 3", "model apm 512 2048", "build")
	for _, c := range []struct {
		line string
		want string // substring of the output; of the error when fail
		fail bool
	}{
		{"sql SELECT COUNT(*) FROM P WHERE v BETWEEN 0 AND 999", "1000 rows; read", false},
		// A bound past int64 saturates instead of emptying the interval.
		{"sql SELECT count(*) FROM P WHERE v BETWEEN 0 AND 1e19", "1000 rows; read", false},
		{"sql select count(*) from P where v between -1e19 and 1e19;", "1000 rows; read", false},
		{"sql INSERT INTO P VALUES (100), (101)", "2 rows inserted", false},
		{"sql UPDATE P SET v = 102 WHERE v = 100", "1 row updated", false},
		{"sql DELETE FROM P WHERE v = 101", "1 row deleted", false},
		{"sql DELETE FROM P WHERE v = 10000", "0 rows deleted", false},
		{"sql SELECT COUNT(*) FROM P WHERE v BETWEEN 0 AND 999", "1001 rows; read", false},
		// A rejected multi-row INSERT applies none of its rows.
		{"sql INSERT INTO P VALUES (5), (5000)", "outside extent [0, 999]", true},
		{"sql INSERT INTO P VALUES (100), (1.5)", "not a bigint", true},
		{"sql INSERT INTO P VALUES (1, 2)", "has 1 column", true},
		{"sql SELECT COUNT(*) FROM P WHERE v BETWEEN 0 AND 999", "1001 rows; read", false},
		{"sql SELECT v FROM P WHERE v BETWEEN 102 AND 102", "[ 102 ]", false},
		{"sql SELECT v FROM P WHERE v BETWEEN 0 AND 999", "# 1001 rows; read", false},
		{"sql SELECT SUM(v) FROM P WHERE v BETWEEN 102 AND 102", "over", false},
		{"sql EXPLAIN SELECT COUNT(*) FROM P WHERE v BETWEEN 7 AND 9", "count sys.P.v [7, 9]: Column.Count\n", false},
		// The session serves one table: no DDL, and no other table.
		{"sql CREATE TABLE m (a, b)", "at offset 0", true},
		{"sql INSERT INTO m VALUES (1, 10), (2, 20)", "unknown table sys.m", true},
		{"sql SELECT a, b FROM m WHERE a BETWEEN 2 AND 2", "unknown table sys.m", true},
		{"sql SELECT nope FROM P WHERE v BETWEEN 1 AND 2", "unknown column", true},
		{"sql SELECT a FROM nope WHERE a BETWEEN 1 AND 2", "nope", true},
		{"sql DELETE FROM P WHERE v =", "", true},
		{"sql", "sql STATEMENT", true},
	} {
		out.Reset()
		err := sh.exec(c.line)
		sh.out.Flush()
		got := out.String()
		if err != nil {
			got = err.Error()
		}
		if (err != nil) != c.fail || !strings.Contains(got, c.want) {
			t.Errorf("%q: got %q (error %v), want %q (error %v)", c.line, got, err != nil, c.want, c.fail)
		}
	}
	out.Reset()
	run(t, sh, "sql SELECT v FROM P WHERE v BETWEEN 0 AND 999")
	if shown := strings.Count(out.String(), "[ "); shown != maxShown {
		t.Errorf("a 1001-row SELECT printed %d rows, want the first %d", shown, maxShown)
	}
}
