package main

import (
	"encoding/json"
	"hash/fnv"
	"testing"

	"selforg"
	"selforg/internal/server"
)

// TestStreamsAreDeterministic: the same seed gives the same statement
// stream from two generator instances, and another seed gives another.
func TestStreamsAreDeterministic(t *testing.T) {
	const n = 10_000
	for _, w := range workloads {
		for client := 0; client < clients; client++ {
			a := streamHash(w.newGen(w, &fullScale, 7, "run", client), n)
			b := streamHash(w.newGen(w, &fullScale, 7, "run", client), n)
			if a != b {
				t.Errorf("%s client %d: two generators of seed 7 differ: %x, %x", w.name, client, a, b)
			}
			if c := streamHash(w.newGen(w, &fullScale, 8, "run", client), n); c == a {
				t.Errorf("%s client %d: seeds 7 and 8 give the same stream %x", w.name, client, a)
			}
		}
		if a, b := streamHash(w.newGen(w, &fullScale, 7, "run", 0), n), streamHash(w.newGen(w, &fullScale, 7, "run", 1), n); a == b {
			t.Errorf("%s: both clients draw the same stream", w.name)
		}
		if a, b := streamHash(w.newGen(w, &fullScale, 7, "run", 0), n), streamHash(w.newGen(w, &fullScale, 7, "trace", 0), n); a == b {
			t.Errorf("%s: the traced sample repeats the measured stream", w.name)
		}
	}
}

// TestWorkloadMixes checks each stream against what the workload says it
// issues.
func TestWorkloadMixes(t *testing.T) {
	const n = 20_000
	declares := func(w *workloadDef, c class) bool {
		for _, x := range w.classes {
			if x == c {
				return true
			}
		}
		return false
	}
	for _, w := range workloads {
		var seen [numClasses]int
		g := w.newGen(w, &fullScale, 3, "run", 1)
		for i := 0; i < n; i++ {
			s := g.next()
			seen[s.class]++
			if s.class.isWrite() {
				if s.a&1 != 1 || (s.class == clsUpdate && s.b&1 != 1) {
					t.Fatalf("%s: client 1 writes a value of the other parity: %s", w.name, s.sql())
				}
				continue
			}
			if s.a > s.b || s.a < w.extent.Lo || s.b > w.extent.Hi {
				t.Fatalf("%s: range outside the extent: %s", w.name, s.sql())
			}
		}
		for c := class(0); c < numClasses; c++ {
			if (seen[c] > 0) != declares(w, c) {
				t.Errorf("%s: %d %s statements, declared %v", w.name, seen[c], c, declares(w, c))
			}
		}
		if w.durable {
			writes := seen[clsInsert] + seen[clsUpdate] + seen[clsDelete]
			if writes < n*45/100 || writes > n*55/100 {
				t.Errorf("%s: %d of %d statements are writes, want about half", w.name, writes, n)
			}
			if seen[clsInsert] < writes*45/100 || seen[clsInsert] > writes*55/100 {
				t.Errorf("%s: %d of %d writes are inserts, want about half", w.name, seen[clsInsert], writes)
			}
		}
	}
}

// TestParseReplyMatchesEncodingJSON: the benchmark's own reader of the
// answer envelope sees what encoding/json sees, whatever the indentation.
func TestParseReplyMatchesEncodingJSON(t *testing.T) {
	res := &server.Result{
		Op: "select", Count: 5, Sum: 0, Truncated: true, Cached: true,
		Rows:        server.NewRows([]int64{7, 10, 3, 8, -4}),
		Stats:       selforg.Stats{ReadBytes: 4096, WriteBytes: 12, ResultCount: 5, Splits: 2, Recodes: 1, DeltaReadBytes: 9, StorageBytes: 100, CompressedBytes: 50},
		Fingerprint: `SELECT v FROM P WHERE v BETWEEN ? AND ? "quoted\\"`,
		Tenant:      "default",
		Columns:     []string{"a", "b"},
		Tuples:      [][]int64{{1, 2}, {3, 4}},
	}
	compact, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	indented, _ := json.MarshalIndent(res, "", "  ")
	for _, body := range [][]byte{compact, indented} {
		var r reply
		if err := parseReply(body, &r); err != nil {
			t.Fatalf("parseReply(%s): %v", body, err)
		}
		if r.count != 5 || r.sum != 0 || !r.truncated {
			t.Errorf("envelope: %+v", r)
		}
		if r.nrows != 5 || r.rowMin != -4 || r.rowMax != 10 {
			t.Errorf("rows: n %d min %d max %d", r.nrows, r.rowMin, r.rowMax)
		}
		if r.rowCnt != [2]int64{3, 2} || r.rowSum != [2]int64{10 + 8 - 4, 7 + 3} {
			t.Errorf("rows by parity: counts %v sums %v", r.rowCnt, r.rowSum)
		}
	}
	for _, bad := range []string{``, `{`, `{"count": }`, `{"rows": [1, 2`, `{"count": 1,}`, `[1]`} {
		var r reply
		if err := parseReply([]byte(bad), &r); err == nil {
			t.Errorf("parseReply(%q) accepted malformed input", bad)
		}
	}
}

func TestStatementSQL(t *testing.T) {
	tests := []struct {
		s    stmt
		want string
	}{
		{stmt{clsCount, 3, 9}, "SELECT COUNT(*) FROM P WHERE v BETWEEN 3 AND 9"},
		{stmt{clsSum, 3, 9}, "SELECT SUM(v) FROM P WHERE v BETWEEN 3 AND 9"},
		{stmt{clsSelect, 0, 1}, "SELECT v FROM P WHERE v BETWEEN 0 AND 1"},
		{stmt{clsInsert, 42, 0}, "INSERT INTO P VALUES (42)"},
		{stmt{clsUpdate, 42, 44}, "UPDATE P SET v = 44 WHERE v = 42"},
		{stmt{clsDelete, 44, 0}, "DELETE FROM P WHERE v = 44"},
	}
	for _, tc := range tests {
		if got := tc.s.sql(); got != tc.want {
			t.Errorf("%v: %q, want %q", tc.s, got, tc.want)
		}
	}
}

// streamHash is the determinism fingerprint of a generator: FNV-1a over
// the SQL text of its first n statements.
func streamHash(g generator, n int) uint64 {
	h := fnv.New64a()
	var buf []byte
	for i := 0; i < n; i++ {
		buf = g.next().appendSQL(buf[:0])
		h.Write(buf)
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}
