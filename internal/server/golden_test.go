package server

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// golden compares got with testdata/<name>.golden byte for byte.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from %s:\n--- got\n%s\n--- want\n%s", name, path, got, want)
	}
}

// TestGoldenWire pins what a client sees: the /sql JSON envelope of one
// statement per read class, of ?explain=1 and of an INSERT, and the
// Explain text of each read class. The JSON files were written at the
// commit before the statement path was collapsed, so "byte-identical"
// is checked, not asserted — except count_explain.json, rewritten once
// when EXPLAIN began to print the bound plan instead of MAL.
func TestGoldenWire(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(query, stmt string) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+"/sql"+query, "text/plain", strings.NewReader(stmt))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %q: status %d: %s", stmt, resp.StatusCode, body)
		}
		return body
	}

	for _, c := range []struct{ name, stmt string }{
		{"select", "SELECT v FROM P WHERE v BETWEEN 100 AND 102"},
		{"count", "SELECT COUNT(*) FROM P WHERE v BETWEEN 100 AND 300"},
		{"sum", "SELECT SUM(v) FROM P WHERE v BETWEEN 100 AND 300"},
	} {
		golden(t, c.name+".json", post("", c.stmt))
		plan, err := s.Explain(c.stmt)
		if err != nil {
			t.Fatalf("Explain(%q): %v", c.stmt, err)
		}
		golden(t, c.name+".plan", []byte(plan))
	}
	golden(t, "count_explain.json", post("?explain=1", "select count(*) from P where v between 7 and 9;"))

	golden(t, "served_insert.json", post("", "INSERT INTO P VALUES (5), (6)"))
}
