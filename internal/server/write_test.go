package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"selforg"
	"selforg/internal/domain"
	"selforg/internal/sim"
)

// TestSQLWriteRoundTrip drives DML against the served (facade) table
// through Exec: SQL writes must hit the column's MVCC delta store and
// never touch the plan cache.
func TestSQLWriteRoundTrip(t *testing.T) {
	s := New(testConfig())
	defer s.Close()

	countAt := func(v int) int64 {
		t.Helper()
		res, err := s.Exec("", fmt.Sprintf("SELECT COUNT(*) FROM P WHERE v BETWEEN %d AND %d", v, v))
		if err != nil {
			t.Fatal(err)
		}
		return res.Count
	}
	base11, base12 := countAt(11), countAt(12)

	res, err := s.Exec("", "INSERT INTO P VALUES (11), (11), (12)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Op != "insert" || res.Count != 3 || res.Cached {
		t.Fatalf("insert result = %+v", res)
	}
	if res.Fingerprint == "" {
		t.Error("write carries no fingerprint")
	}
	if got := countAt(11); got != base11+2 {
		t.Errorf("count(11) = %d, want %d", got, base11+2)
	}

	res, err = s.Exec("", "UPDATE P SET v = 12 WHERE v = 11")
	if err != nil {
		t.Fatal(err)
	}
	if res.Op != "update" || res.Count != 1 {
		t.Fatalf("update result = %+v", res)
	}
	if got := countAt(12); got != base12+2 {
		t.Errorf("count(12) = %d, want %d", got, base12+2)
	}

	res, err = s.Exec("", "DELETE FROM P WHERE v = 12")
	if err != nil {
		t.Fatal(err)
	}
	if res.Op != "delete" || res.Count != 1 {
		t.Fatalf("delete result = %+v", res)
	}
	if got := countAt(12); got != base12+1 {
		t.Errorf("count(12) = %d, want %d", got, base12+1)
	}

	// Writes must not populate the plan cache: only the SELECTs above
	// may account for its traffic.
	hits, misses, _ := s.CacheStats()
	if misses != 1 {
		t.Errorf("cache misses = %d, want 1 (the count shape)", misses)
	}
	_ = hits

	// Client-fault writes are typed for the HTTP layer's 400 mapping.
	for _, bad := range []string{
		"INSERT INTO P (nope) VALUES (1)",   // unknown column
		"INSERT INTO P VALUES (1, 2)",       // arity
		"INSERT INTO P VALUES (1.5)",        // not a bigint
		"UPDATE P SET v = 1 WHERE nope = 2", // unknown predicate column
		"CREATE TABLE P (a)",                // the served table exists
		"INSERT INTO P VALUES (-1)",         // outside the column extent
		"DELETE FROM P WHERE v =",           // syntax
	} {
		_, err := s.Exec("", bad)
		if err == nil {
			t.Errorf("Exec(%q) accepted", bad)
			continue
		}
		if !isClientError(err) {
			t.Errorf("Exec(%q) error %v is not a client error", bad, err)
		}
	}
}

// TestSQLTenantTables exercises the multi-column path: CREATE TABLE
// into the tenant's private catalog, DML through MAL write plans,
// SELECT with positional rejoin — and isolation between tenants.
func TestSQLTenantTables(t *testing.T) {
	s := New(testConfig())
	defer s.Close()

	exec := func(tenant, src string) *Result {
		t.Helper()
		res, err := s.Exec(tenant, src)
		if err != nil {
			t.Fatalf("Exec(%q, %q): %v", tenant, src, err)
		}
		return res
	}

	res := exec("alpha", "CREATE TABLE m (a, b, c)")
	if res.Op != "create" {
		t.Fatalf("create result = %+v", res)
	}
	if _, err := s.Exec("alpha", "CREATE TABLE m (x)"); err == nil || !isClientError(err) {
		t.Fatalf("redefining m: err = %v", err)
	}

	res = exec("alpha", "INSERT INTO m VALUES (1, 10, 100), (2, 20, 200), (3, 30, 300)")
	if res.Count != 3 {
		t.Fatalf("insert affected %d, want 3", res.Count)
	}
	// Explicit column list in another order.
	exec("alpha", "INSERT INTO m (c, a, b) VALUES (400, 4, 40)")

	res = exec("alpha", "UPDATE m SET b = 99 WHERE a = 2")
	if res.Count != 1 {
		t.Fatalf("update affected %d, want 1", res.Count)
	}
	res = exec("alpha", "DELETE FROM m WHERE a = 1")
	if res.Count != 1 {
		t.Fatalf("delete affected %d, want 1", res.Count)
	}

	// Multi-column SELECT: the surviving rows, positionally rejoined.
	res = exec("alpha", "SELECT a, b, c FROM m WHERE a BETWEEN 0 AND 50")
	if res.Op != "select" || res.Cached {
		t.Fatalf("select result = %+v", res)
	}
	if !reflect.DeepEqual(res.Columns, []string{"a", "b", "c"}) {
		t.Fatalf("columns = %v", res.Columns)
	}
	want := [][]int64{{2, 99, 200}, {3, 30, 300}, {4, 40, 400}}
	if !reflect.DeepEqual(res.Tuples, want) {
		t.Fatalf("tuples = %v, want %v", res.Tuples, want)
	}
	if res.Count != 3 {
		t.Fatalf("select count = %d, want 3", res.Count)
	}

	// Aggregates against the tenant table.
	if res = exec("alpha", "SELECT COUNT(*) FROM m WHERE a BETWEEN 0 AND 50"); res.Count != 3 {
		t.Fatalf("count = %+v", res)
	}
	if res = exec("alpha", "SELECT SUM(b) FROM m WHERE a BETWEEN 0 AND 50"); res.Sum != 99+30+40 {
		t.Fatalf("sum = %+v", res)
	}

	// Isolation: beta has no table m, in either direction.
	if _, err := s.Exec("beta", "SELECT a FROM m WHERE a BETWEEN 0 AND 50"); err == nil || !isClientError(err) {
		t.Fatalf("beta read alpha's table: err = %v", err)
	}
	if _, err := s.Exec("beta", "INSERT INTO m VALUES (1, 2, 3)"); err == nil || !isClientError(err) {
		t.Fatalf("beta wrote alpha's table: err = %v", err)
	}
	// And beta may reuse the name independently.
	exec("beta", "CREATE TABLE m (x)")
	exec("beta", "INSERT INTO m VALUES (7)")
	if res = exec("beta", "SELECT COUNT(*) FROM m WHERE x BETWEEN 0 AND 10"); res.Count != 1 {
		t.Fatalf("beta's m count = %+v", res)
	}
}

// TestHandlerSQLWrites drives the same flows over real HTTP: CREATE,
// INSERT, UPDATE, DELETE and SELECT against POST /sql, with client
// faults mapped to 400.
func TestHandlerSQLWrites(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(tenant, stmt string) (int, *Result) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/sql?tenant="+tenant, "text/plain", strings.NewReader(stmt))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res Result
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, &res
	}

	if code, res := post("w", "CREATE TABLE pairs (k, v)"); code != 200 || res.Op != "create" {
		t.Fatalf("create: %d %+v", code, res)
	}
	if code, res := post("w", "INSERT INTO pairs VALUES (1, 2), (3, 4)"); code != 200 || res.Count != 2 {
		t.Fatalf("insert: %d %+v", code, res)
	}
	if code, res := post("w", "UPDATE pairs SET v = 9 WHERE k = 1"); code != 200 || res.Count != 1 {
		t.Fatalf("update: %d %+v", code, res)
	}
	if code, res := post("w", "DELETE FROM pairs WHERE k = 3"); code != 200 || res.Count != 1 {
		t.Fatalf("delete: %d %+v", code, res)
	}
	code, res := post("w", "SELECT k, v FROM pairs WHERE k BETWEEN 0 AND 10")
	if code != 200 || !reflect.DeepEqual(res.Tuples, [][]int64{{1, 9}}) {
		t.Fatalf("select: %d %+v", code, res)
	}
	// The served table accepts DML over the wire too.
	if code, res := post("w", "INSERT INTO P VALUES (42)"); code != 200 || res.Count != 1 {
		t.Fatalf("facade insert: %d %+v", code, res)
	}
	// Client faults are 400, not 500.
	for _, bad := range []string{
		"INSERT INTO pairs VALUES (1)",       // arity vs table
		"INSERT INTO missing VALUES (1)",     // unknown table
		"UPDATE pairs SET z = 1 WHERE k = 1", // unknown column
		"INSERT INTO P VALUES (1.5)",         // not a bigint
		"DELETE FROM pairs WHERE",            // syntax
	} {
		if code, _ := post("w", bad); code != http.StatusBadRequest {
			t.Errorf("POST %q = %d, want 400", bad, code)
		}
	}
}

// TestSQLDMLEquivalence is the write-path equivalence gate: the same
// write sequence applied through SQL (Exec) and directly through the
// facade (Column.Insert/Update/Delete) must leave byte-identical
// columns, across strategy × model × shards.
func TestSQLDMLEquivalence(t *testing.T) {
	combos := []selforg.Options{
		{Strategy: selforg.Segmentation, Model: selforg.APM},
		{Strategy: selforg.Segmentation, Model: selforg.GD, Shards: 3},
		{Strategy: selforg.Replication, Model: selforg.APM, Shards: 2},
		{Strategy: selforg.Replication, Model: selforg.None},
	}
	for _, opts := range combos {
		opts := opts
		name := fmt.Sprintf("%v-%v-shards%d", opts.Strategy, opts.Model, opts.Shards)
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Options = opts
			cfg.MaxRows = cfg.N + 100 // full contents, never truncated
			s := New(cfg)
			defer s.Close()

			// The reference column: identical seed data, identical options,
			// written through the facade API directly.
			vals := sim.GenerateColumn(cfg.N, domain.NewRange(cfg.Extent.Lo, cfg.Extent.Hi), cfg.Seed)
			ref, err := selforg.New(cfg.Extent, vals, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()

			type op struct {
				sql   string
				apply func() error
			}
			ops := []op{
				{"INSERT INTO P VALUES (123), (456), (789)", func() error {
					for _, v := range []int64{123, 456, 789} {
						if _, err := ref.Insert(v); err != nil {
							return err
						}
					}
					return nil
				}},
				{"UPDATE P SET v = 500 WHERE v = 456", func() error {
					_, _, err := ref.Update(456, 500)
					return err
				}},
				{"DELETE FROM P WHERE v = 789", func() error {
					_, _, err := ref.Delete(789)
					return err
				}},
				{"INSERT INTO P VALUES (9999)", func() error {
					_, err := ref.Insert(9999)
					return err
				}},
				{"UPDATE P SET v = 1 WHERE v = 9999", func() error {
					_, _, err := ref.Update(9999, 1)
					return err
				}},
			}
			for _, o := range ops {
				if _, err := s.Exec("", o.sql); err != nil {
					t.Fatalf("Exec(%q): %v", o.sql, err)
				}
				if err := o.apply(); err != nil {
					t.Fatalf("ref %q: %v", o.sql, err)
				}
			}

			// Compare full contents through both read paths.
			res, err := s.Exec("", fmt.Sprintf(
				"SELECT v FROM P WHERE v BETWEEN %d AND %d", cfg.Extent.Lo, cfg.Extent.Hi))
			if err != nil {
				t.Fatal(err)
			}
			want, _ := ref.Select(cfg.Extent.Lo, cfg.Extent.Hi)
			if res.Truncated {
				t.Fatalf("result truncated at %d rows; raise MaxRows", res.Rows.Len())
			}
			if !reflect.DeepEqual(res.Rows.Values(), want) {
				t.Fatalf("SQL path diverged from direct writes: %d vs %d rows", res.Rows.Len(), len(want))
			}
		})
	}
}

// --- SIGKILL crash test: acked SQL INSERTs over HTTP survive ---

const (
	sqlCrashWriters = 3
	// Each writer hammers one value; the ack count per value is what
	// recovery must reproduce.
	sqlCrashBase = 1111
)

// TestSQLCrashHelper is the re-exec'd child: it serves SQL over HTTP on
// a durable tenant and prints "ACK <writer> <index>" for every insert
// the server acknowledged with 200 — until the parent SIGKILLs it.
func TestSQLCrashHelper(t *testing.T) {
	dir := os.Getenv("SELFORG_SQLCRASH_DIR")
	if dir == "" {
		t.Skip("crash helper: run by TestSQLCrashRecoverySIGKILL")
	}
	cfg := testConfig()
	cfg.Options.Shards = 3
	cfg.Options.DeltaMaxBytes = 4 * 1024 // frequent merge-backs + checkpoints
	cfg.Options.Durability = selforg.Durability{Dir: dir}
	s := New(cfg)
	srv := httptest.NewServer(s.Handler())

	var mu sync.Mutex // ACK lines must not interleave
	var wg sync.WaitGroup
	for w := 0; w < sqlCrashWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stmt := fmt.Sprintf("INSERT INTO P VALUES (%d)", sqlCrashBase*(w+1))
			for i := 0; ; i++ {
				resp, err := http.Post(srv.URL+"/sql", "text/plain", strings.NewReader(stmt))
				if err != nil {
					fmt.Println("HELPER_ERR", err)
					os.Exit(1)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fmt.Println("HELPER_ERR status", resp.StatusCode)
					os.Exit(1)
				}
				mu.Lock()
				fmt.Printf("ACK %d %d\n", w, i)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
}

// TestSQLCrashRecoverySIGKILL kills a serving process mid-workload and
// verifies every SQL INSERT it acknowledged over HTTP is visible after
// recovery: per writer, recovered occurrences = seed + acked (+ at most
// the one insert in flight at the kill).
func TestSQLCrashRecoverySIGKILL(t *testing.T) {
	if os.Getenv("SELFORG_SQLCRASH_DIR") != "" {
		t.Skip("inside helper")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestSQLCrashHelper$")
	cmd.Env = append(os.Environ(), "SELFORG_SQLCRASH_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	acked := make([]int, sqlCrashWriters)
	total := 0
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			var w, i int
			if n, _ := fmt.Sscanf(sc.Text(), "ACK %d %d", &w, &i); n != 2 {
				continue
			}
			mu.Lock()
			if i != acked[w] {
				t.Errorf("writer %d acked %d out of order (want %d)", w, i, acked[w])
			}
			acked[w] = i + 1
			total++
			mu.Unlock()
		}
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		mu.Lock()
		ready := total >= 1_000
		for _, a := range acked {
			ready = ready && a > 0
		}
		mu.Unlock()
		if ready {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("helper produced too few acks before deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
		t.Fatal(err)
	}
	<-readerDone
	cmd.Wait() // expected: killed
	if t.Failed() {
		return
	}

	// The seed occurrences of each hammered value, from an identical
	// non-durable server.
	refCfg := testConfig()
	refCfg.Options.Shards = 3
	refCfg.Options.DeltaMaxBytes = 4 * 1024
	refS := New(refCfg)
	defer refS.Close()

	// Recovery: a rebuilt server over the helper's directory replays the
	// tenant's WAL under New.
	cfg := testConfig()
	cfg.Options.Shards = 3
	cfg.Options.DeltaMaxBytes = 4 * 1024
	cfg.Options.Durability = selforg.Durability{Dir: dir}
	s := New(cfg)
	defer s.Close()

	for w := 0; w < sqlCrashWriters; w++ {
		v := sqlCrashBase * (w + 1)
		q := fmt.Sprintf("SELECT COUNT(*) FROM P WHERE v BETWEEN %d AND %d", v, v)
		seed, err := refS.Exec("", q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Exec("", q)
		if err != nil {
			t.Fatal(err)
		}
		lo := seed.Count + int64(acked[w])
		if got.Count < lo {
			t.Errorf("writer %d: %d acked inserts, recovered only %d beyond seed",
				w, acked[w], got.Count-seed.Count)
		}
		if got.Count > lo+1 {
			t.Errorf("writer %d: recovered %d beyond seed for %d acked (more than one in flight?)",
				w, got.Count-seed.Count, acked[w])
		}
	}
}

// TestRejectedInsertAppliesNothing: a multi-row INSERT with one value
// outside the extent is refused whole — 400 and not a row applied.
func TestRejectedInsertAppliesNothing(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const all = "SELECT COUNT(*) FROM P WHERE v BETWEEN 0 AND 9999"
	before, err := s.Exec("", all)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/sql", "text/plain", strings.NewReader("INSERT INTO P VALUES (1),(2),(5000000)"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	after, err := s.Exec("", all)
	if err != nil {
		t.Fatal(err)
	}
	if after.Count != before.Count {
		t.Errorf("rejected INSERT applied %d rows", after.Count-before.Count)
	}
}
