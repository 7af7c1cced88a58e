package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"selforg"
)

// wireRef is the answer envelope as encoding/json wrote it before the
// hand-written encoder: the same keys and tags (Rows a pointer, so an
// empty non-nil Rows is "[]"), except that Sum is present whenever op
// is sum (a zero sum used to vanish under omitempty).
type wireRef struct {
	Op          string        `json:"op"`
	Count       int64         `json:"count"`
	Sum         *int64        `json:"sum,omitempty"`
	Rows        *[]int64      `json:"rows,omitempty"`
	Columns     []string      `json:"columns,omitempty"`
	Tuples      [][]int64     `json:"tuples,omitempty"`
	Truncated   bool          `json:"truncated,omitempty"`
	Stats       selforg.Stats `json:"stats"`
	Cached      bool          `json:"cached"`
	Fingerprint string        `json:"fingerprint"`
	Tenant      string        `json:"tenant"`
	Plan        string        `json:"plan,omitempty"`
}

func decodeAny(t testing.TB, b []byte) map[string]any {
	t.Helper()
	d := json.NewDecoder(bytes.NewReader(b))
	d.UseNumber()
	var m map[string]any
	if err := d.Decode(&m); err != nil {
		t.Fatalf("decode %q: %v", b, err)
	}
	return m
}

// checkWire holds appendJSON to encoding/json: valid JSON that decodes
// to what the reference struct encodes to, and every string escaped
// byte for byte as encoding/json escapes it.
func checkWire(t testing.TB, res *Result) {
	t.Helper()
	got := res.appendJSON(nil)
	if !json.Valid(got) {
		t.Fatalf("appendJSON wrote invalid JSON: %q", got)
	}
	ref := wireRef{
		Op: res.Op, Count: res.Count,
		Columns: res.Columns, Tuples: res.Tuples, Truncated: res.Truncated,
		Stats: res.Stats, Cached: res.Cached, Fingerprint: res.Fingerprint,
		Tenant: res.Tenant, Plan: res.Plan,
	}
	if res.Op == string(opSum) {
		ref.Sum = &res.Sum
	}
	if res.Rows != nil {
		vals := append([]int64{}, res.Rows.Values()...)
		ref.Rows = &vals
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := decodeAny(t, got), decodeAny(t, want); !reflect.DeepEqual(g, w) {
		t.Fatalf("wire differs from encoding/json:\n got %s\nwant %s", got, want)
	}
	for _, s := range []string{res.Op, res.Fingerprint, res.Tenant, res.Plan} {
		std, _ := json.Marshal(s)
		if own := appendString(nil, s); !bytes.Equal(own, std) {
			t.Fatalf("appendString(%q) = %s, encoding/json %s", s, own, std)
		}
	}
}

// chunkedSelect returns a multi-chunk SelectRows result over an adapted
// column and its chunk lengths.
func chunkedSelect(t testing.TB) (*selforg.Rows, []int) {
	t.Helper()
	vals := make([]int64, 20_000)
	for i := range vals {
		vals[i] = int64(i*7919) % 10_000
	}
	col, err := selforg.New(selforg.Interval{Lo: 0, Hi: 9999}, vals, selforg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(col.Close)
	for _, r := range [][2]int64{{1000, 2999}, {4000, 5999}, {7000, 8999}} {
		col.Select(r[0], r[1]) // split the column into segments
	}
	rows, _ := col.SelectRows(500, 9500)
	var lens []int
	rows.Chunks(func(v []int64) bool { lens = append(lens, len(v)); return true })
	if len(lens) < 3 {
		t.Fatalf("want a rope of at least 3 chunks, got %v", lens)
	}
	return rows, lens
}

func TestWireMatchesEncodingJSON(t *testing.T) {
	rows, lens := chunkedSelect(t)
	stats := selforg.Stats{ReadBytes: 1 << 40, WriteBytes: 3, ResultCount: 7, Splits: 1, Drops: 2,
		Recodes: 3, DeltaReadBytes: 4, Merged: 5, StorageBytes: 6, CompressedBytes: 8}
	base := func(op string) *Result {
		return &Result{Op: op, Count: 3, Stats: stats, Cached: true,
			Fingerprint: "SELECT v FROM P WHERE v BETWEEN ? AND ?", Tenant: "default"}
	}
	with := func(r *Result, f func(*Result)) *Result { f(r); return r }
	cases := map[string]*Result{
		"select cut at a chunk boundary": with(base("select"), func(r *Result) {
			r.Rows, r.Truncated = &Rows{chunked: rows, n: lens[0]}, true
		}),
		"select cut mid-chunk": with(base("select"), func(r *Result) {
			r.Rows, r.Truncated = &Rows{chunked: rows, n: lens[0] + lens[1]/2}, true
		}),
		"select whole rope": with(base("select"), func(r *Result) { r.Rows = &Rows{chunked: rows, n: rows.Len()} }),
		"flat rows":         with(base("select"), func(r *Result) { r.Rows = NewRows([]int64{3, 1, 2}) }),
		"extreme rows": with(base("select"), func(r *Result) {
			r.Rows = NewRows([]int64{math.MinInt64, math.MaxInt64, -1, 0, -987654321})
		}),
		"empty rows": base("select"),
		"count":      base("count"),
		"sum":        with(base("sum"), func(r *Result) { r.Sum = -42 }),
		"sum 0":      with(base("sum"), func(r *Result) { r.Count = 0 }),
		"insert":     base("insert"),
		"tenant rows": with(base("select"), func(r *Result) {
			r.Columns, r.Tuples = []string{"k", "w"}, [][]int64{{1, 10}, {2, -20}, {math.MinInt64, math.MaxInt64}}
			r.Rows, r.Truncated = NewRows([]int64{10, -20}), true
		}),
		"plan": with(base("count"), func(r *Result) {
			r.Plan = "function user.q0(A0:dbl):void;\n    X1 := sql.bind(\"sys\",\"P\",\"v\",0);\nend q0;\n"
		}),
		"hostile fingerprint": with(base("select"), func(r *Result) {
			r.Fingerprint = "q\"b\\s<>&\x01\x1f\b\f\n\r\t \u2028\u2029 é😀 \xff\xc3 end"
			r.Columns, r.Tuples = []string{"<a>", "\u2029"}, [][]int64{{1, 2}}
		}),
	}
	for name, res := range cases {
		t.Run(name, func(t *testing.T) { checkWire(t, res) })
	}
}

// FuzzWireEnvelope holds the encoder to encoding/json on arbitrary
// fingerprint bytes (invalid UTF-8 included) and row values.
func FuzzWireEnvelope(f *testing.F) {
	f.Add([]byte("SELECT v FROM P WHERE v BETWEEN ? AND ?"), uint8(0), int64(1), int64(-2), int64(3))
	f.Add([]byte("\"\\<>&\x00\u2028\xff"), uint8(2), int64(math.MinInt64), int64(math.MaxInt64), int64(0))
	f.Fuzz(func(t *testing.T, fp []byte, op uint8, a, b, c int64) {
		res := &Result{Op: []string{"select", "count", "sum", "insert"}[op%4], Count: a,
			Fingerprint: string(fp), Tenant: string(fp[:len(fp)/2]), Plan: string(fp[len(fp)/2:])}
		switch res.Op {
		case "select":
			res.Rows = NewRows([]int64{a, b, c}[:op%4])
			res.Truncated = op&4 != 0
		case "sum":
			res.Sum = b
		}
		if op&8 != 0 {
			res.Columns, res.Tuples = []string{string(fp)}, [][]int64{{a, b}, {c}}
		}
		checkWire(t, res)
	})
}

// recordingWriter is a ResponseWriter that keeps the body and the size
// of every Write; from Write number failAt on (when failAt > 0) every
// Write fails.
type recordingWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
	writes []int
	failAt int
}

func newRecordingWriter() *recordingWriter { return &recordingWriter{header: http.Header{}} }

func (w *recordingWriter) Header() http.Header { return w.header }
func (w *recordingWriter) WriteHeader(s int)   { w.status = s }
func (w *recordingWriter) Write(b []byte) (int, error) {
	w.writes = append(w.writes, len(b))
	if w.failAt > 0 && len(w.writes) >= w.failAt {
		return 0, errors.New("client went away")
	}
	return w.body.Write(b)
}

// TestWireStreamsLargeAnswers: a 100 000-row SELECT through the handler
// arrives in bounded flushes, byte for byte what appendJSON writes for
// the same result; a small answer is one Write with Content-Length; and
// a client whose Write fails gets no further Write.
func TestWireStreamsLargeAnswers(t *testing.T) {
	cfg := testConfig()
	cfg.N, cfg.MaxRows = 120_000, 100_000
	s := New(cfg)
	defer s.Close()
	const stmt = "SELECT v FROM P WHERE v BETWEEN 0 AND 9999"
	serve := func(w http.ResponseWriter, stmt string) {
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/sql", strings.NewReader(stmt)))
	}
	for i := 0; i < 5; i++ { // converge: the answers below see one layout
		if _, err := s.Exec("", stmt); err != nil {
			t.Fatal(err)
		}
	}

	w := newRecordingWriter()
	serve(w, stmt)
	res, err := s.Exec("", stmt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 100_000 || !res.Truncated {
		t.Fatalf("rows %d truncated %v, want 100000 true", res.Rows.Len(), res.Truncated)
	}
	if want := res.appendJSON(nil); !bytes.Equal(w.body.Bytes(), want) {
		t.Fatalf("streamed body (%d B) differs from appendJSON (%d B)", w.body.Len(), len(want))
	}
	if len(w.writes) < 2 || w.header.Get("Content-Length") != "" || w.status != http.StatusOK {
		t.Errorf("large answer: %d writes, Content-Length %q, status %d; want streamed, none, 200",
			len(w.writes), w.header.Get("Content-Length"), w.status)
	}
	for _, n := range w.writes {
		if n > wireBufSize {
			t.Fatalf("a %d-byte flush exceeds the %d-byte buffer", n, wireBufSize)
		}
	}

	small := newRecordingWriter()
	serve(small, "SELECT COUNT(*) FROM P WHERE v BETWEEN 1 AND 2")
	if len(small.writes) != 1 || small.header.Get("Content-Length") != strconv.Itoa(small.body.Len()) {
		t.Errorf("small answer: %d writes, Content-Length %q for %d bytes; want 1 write with its length",
			len(small.writes), small.header.Get("Content-Length"), small.body.Len())
	}

	for _, failAt := range []int{1, 2} {
		w := newRecordingWriter()
		w.failAt = failAt
		serve(w, stmt)
		if len(w.writes) != failAt {
			t.Errorf("Write failing from call %d: %d calls, want the encoder to stop at the failure", failAt, len(w.writes))
		}
	}
}
