package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"selforg/internal/sql"
)

// errorKind names the typed error Exec returns, "" for success.
func errorKind(err error) string {
	var (
		se *sql.SyntaxError
		ce *CompileError
		we *WriteError
		te *TenantError
	)
	switch {
	case err == nil:
		return ""
	case errors.As(err, &se):
		return "syntax"
	case errors.As(err, &ce):
		return "compile"
	case errors.As(err, &we):
		return "write"
	case errors.As(err, &te):
		return "tenant"
	}
	return "internal"
}

// TestExecStatementMatrix walks every statement class against the
// served table, and against a table that does not exist, through the
// one statement path, in order, on one server
// (seed 1, 20 000 values over [0, 9999]). Each row is POSTed to /sql
// twice: op, count and sum are those of the first answer, cached and
// status those of both. A rejected row is also run through Exec to pin
// its error type; rejected statements change nothing, so rows after
// them see the same state. Every 200 answer carries "sum" exactly when
// its op is sum — a SUM over no rows answers "sum":0.
func TestExecStatementMatrix(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rows := []struct {
		name, tenant, stmt string
		op                 string
		count, sum         int64
		cached             [2]bool
		errKind            string
		status             [2]int
	}{
		// The served column: the plan is the operator that runs, cached
		// by fingerprint for reads and writes alike. The delete miss
		// shares the delete's fingerprint, so it is warm from its first
		// call.
		{"served select", "", "SELECT v FROM P WHERE v BETWEEN 100 AND 102", "select", 6, 0, [2]bool{false, true}, "", [2]int{200, 200}},
		{"served count", "", "SELECT COUNT(*) FROM P WHERE v BETWEEN 100 AND 300", "count", 393, 0, [2]bool{false, true}, "", [2]int{200, 200}},
		{"served sum", "", "SELECT SUM(v) FROM P WHERE v BETWEEN 100 AND 300", "sum", 393, 80308, [2]bool{false, true}, "", [2]int{200, 200}},
		{"served insert", "", "INSERT INTO P VALUES (100), (101)", "insert", 2, 0, [2]bool{false, true}, "", [2]int{200, 200}},
		{"served update", "", "UPDATE P SET v = 102 WHERE v = 100", "update", 1, 0, [2]bool{false, true}, "", [2]int{200, 200}},
		{"served delete", "", "DELETE FROM P WHERE v = 101", "delete", 1, 0, [2]bool{false, true}, "", [2]int{200, 200}},
		{"served delete miss", "", "DELETE FROM P WHERE v = 10000", "delete", 0, 0, [2]bool{true, true}, "", [2]int{200, 200}},
		// 6 + 4 inserted − 2 deleted; the count shape is already warm.
		{"served count after writes", "", "select count(*) from P where v between 100 and 102;", "count", 8, 0, [2]bool{true, true}, "", [2]int{200, 200}},
		// SUM answers from the encoding and the delta overlay: the count
		// and the sum of the same rows, pending writes included.
		{"served sum after writes", "", "select sum(v) from P where v between 100 and 102;", "sum", 8, 810, [2]bool{true, true}, "", [2]int{200, 200}},
		{"served sum full extent", "", "SELECT SUM(v) FROM P WHERE v BETWEEN 0 AND 9999", "sum", 20002, 100295123, [2]bool{true, true}, "", [2]int{200, 200}},
		{"served sum inverted", "", "SELECT SUM(v) FROM P WHERE v BETWEEN 300 AND 100", "sum", 0, 0, [2]bool{true, true}, "", [2]int{200, 200}},
		{"served sum past extent", "", "SELECT SUM(v) FROM P WHERE v BETWEEN 10000 AND 20000", "sum", 0, 0, [2]bool{true, true}, "", [2]int{200, 200}},

		// No DDL and no table but sys.P: CREATE TABLE is a syntax error
		// at offset 0, and any other table is unknown at bind.
		{"tenant create", "t", "CREATE TABLE m (a, b)", "", 0, 0, [2]bool{}, "syntax", [2]int{400, 400}},
		{"tenant insert", "t", "INSERT INTO m VALUES (1, 10), (2, 20)", "", 0, 0, [2]bool{}, "compile", [2]int{400, 400}},
		{"tenant select", "t", "SELECT a, b FROM m WHERE a BETWEEN 1 AND 2", "", 0, 0, [2]bool{}, "compile", [2]int{400, 400}},
		{"tenant count", "t", "SELECT COUNT(*) FROM m WHERE a BETWEEN 2 AND 2", "", 0, 0, [2]bool{}, "compile", [2]int{400, 400}},
		{"tenant sum", "t", "SELECT SUM(b) FROM m WHERE a BETWEEN 1 AND 2", "", 0, 0, [2]bool{}, "compile", [2]int{400, 400}},
		{"tenant update", "t", "UPDATE m SET b = 5 WHERE a = 1", "", 0, 0, [2]bool{}, "compile", [2]int{400, 400}},
		{"tenant delete", "t", "DELETE FROM m WHERE a = 2", "", 0, 0, [2]bool{}, "compile", [2]int{400, 400}},

		// Client faults: typed, 400, nothing applied.
		{"unknown table read", "t", "SELECT a FROM nope WHERE a BETWEEN 1 AND 2", "", 0, 0, [2]bool{}, "compile", [2]int{400, 400}},
		{"unknown table write", "t", "INSERT INTO nope VALUES (1)", "", 0, 0, [2]bool{}, "compile", [2]int{400, 400}},
		{"unknown column served", "", "SELECT nope FROM P WHERE v BETWEEN 1 AND 2", "", 0, 0, [2]bool{}, "compile", [2]int{400, 400}},
		{"unknown sum column served", "", "SELECT SUM(nope) FROM P WHERE v BETWEEN 1 AND 2", "", 0, 0, [2]bool{}, "compile", [2]int{400, 400}},
		{"arity served", "", "INSERT INTO P VALUES (1, 2)", "", 0, 0, [2]bool{}, "compile", [2]int{400, 400}},
		{"non-integer literal", "", "INSERT INTO P VALUES (100), (1.5)", "", 0, 0, [2]bool{}, "compile", [2]int{400, 400}},
		{"outside extent", "", "INSERT INTO P VALUES (100), (101), (5000000)", "", 0, 0, [2]bool{}, "write", [2]int{400, 400}},
		{"syntax", "", "DELETE FROM P WHERE v =", "", 0, 0, [2]bool{}, "syntax", [2]int{400, 400}},
		{"empty", "", " ; ", "", 0, 0, [2]bool{}, "syntax", [2]int{400, 400}},
		{"tenant name", "a b", "SELECT COUNT(*) FROM P WHERE v BETWEEN 1 AND 2", "", 0, 0, [2]bool{}, "tenant", [2]int{400, 400}},

		// None of the rejected writes above left a row behind.
		{"served count after rejects", "", "SELECT COUNT(*) FROM P WHERE v BETWEEN 100 AND 102", "count", 8, 0, [2]bool{true, true}, "", [2]int{200, 200}},
	}
	for _, r := range rows {
		for call := 0; call < 2; call++ {
			resp, err := http.Post(ts.URL+"/sql?tenant="+url.QueryEscape(r.tenant), "text/plain", strings.NewReader(r.stmt))
			if err != nil {
				t.Fatal(err)
			}
			var (
				res  Result
				keys map[string]any
			)
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK {
				if err = json.Unmarshal(body, &res); err == nil {
					err = json.Unmarshal(body, &keys)
				}
			}
			if err != nil {
				t.Fatalf("%s: decode: %v", r.name, err)
			}
			if resp.StatusCode != r.status[call] {
				t.Errorf("%s call %d: status %d, want %d", r.name, call+1, resp.StatusCode, r.status[call])
			}
			if resp.StatusCode != http.StatusOK {
				continue
			}
			if res.Cached != r.cached[call] {
				t.Errorf("%s call %d: cached %v, want %v", r.name, call+1, res.Cached, r.cached[call])
			}
			if _, has := keys["sum"]; has != (res.Op == "sum") {
				t.Errorf("%s call %d: op %q with \"sum\" key %v: %s", r.name, call+1, res.Op, has, body)
			}
			if res.Fingerprint == "" {
				t.Errorf("%s call %d: no fingerprint", r.name, call+1)
			}
			if call == 0 && (res.Op != r.op || res.Count != r.count || res.Sum != r.sum) {
				t.Errorf("%s: op %q count %d sum %d, want %q %d %d",
					r.name, res.Op, res.Count, res.Sum, r.op, r.count, r.sum)
			}
		}
		if r.errKind != "" {
			_, err := s.Exec(r.tenant, r.stmt)
			if got := errorKind(err); got != r.errKind {
				t.Errorf("%s: Exec error kind %q (%v), want %q", r.name, got, err, r.errKind)
			}
		}
	}
	// The 3 served read shapes and 4 write shapes: the two-row INSERT,
	// UPDATE, DELETE and the three-row INSERT whose value the run
	// refuses outside the extent (a plan is bound before its values).
	if n := s.cache.Len(); n != 7 {
		t.Errorf("plan cache holds %d plans, want the 7 served shapes", n)
	}
}
