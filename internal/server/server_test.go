package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"selforg"
)

// testConfig is a small, fast column: 20k values over [0, 9999], every
// row returnable, metrics isolated per test.
func testConfig() Config {
	return Config{
		Extent:   selforg.Interval{Lo: 0, Hi: 9999},
		N:        20_000,
		Seed:     1,
		MaxRows:  20_000,
		Observer: selforg.NewObserver(),
	}
}

func TestExecColdThenWarm(t *testing.T) {
	s := New(testConfig())
	defer s.Close()

	r1, err := s.Exec("", "SELECT COUNT(*) FROM P WHERE v BETWEEN 100 AND 200")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Error("first execution reported cached")
	}
	if r1.Op != "count" || r1.Count <= 0 {
		t.Errorf("count result = %+v", r1)
	}
	// Same shape, different constants: must hit the cache.
	r2, err := s.Exec("", "select count(*) from P where v between 300 and 400;")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("same-shape execution missed the cache")
	}
	hits, misses, _ := s.CacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if r1.Fingerprint != r2.Fingerprint {
		t.Errorf("fingerprints differ: %q vs %q", r1.Fingerprint, r2.Fingerprint)
	}
}

func TestExecOps(t *testing.T) {
	s := New(testConfig())
	defer s.Close()

	sel, err := s.Exec("", "SELECT v FROM P WHERE v BETWEEN 10 AND 20")
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := s.Exec("", "SELECT COUNT(*) FROM P WHERE v BETWEEN 10 AND 20")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Exec("", "SELECT SUM(v) FROM P WHERE v BETWEEN 10 AND 20")
	if err != nil {
		t.Fatal(err)
	}
	if int64(sel.Rows.Len()) != sel.Count {
		t.Errorf("select returned %d rows, count %d", sel.Rows.Len(), sel.Count)
	}
	if cnt.Count != sel.Count {
		t.Errorf("COUNT(*) = %d, SELECT cardinality = %d", cnt.Count, sel.Count)
	}
	var want int64
	for _, v := range sel.Rows.Values() {
		if v < 10 || v > 20 {
			t.Fatalf("row %d outside predicate", v)
		}
		want += v
	}
	if sum.Sum != want {
		t.Errorf("SUM(v) = %d, want %d", sum.Sum, want)
	}
}

func TestExecFractionalBounds(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	// [9.5, 20.5] over integers is [10, 20]: same answer as the integer
	// bounds — the ceil/floor bind conversion.
	a, err := s.Exec("", "SELECT COUNT(*) FROM P WHERE v BETWEEN 9.5 AND 20.5")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Exec("", "SELECT COUNT(*) FROM P WHERE v BETWEEN 10 AND 20")
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != b.Count {
		t.Errorf("fractional bounds count %d != integer bounds count %d", a.Count, b.Count)
	}
	// Bounds past the int64 range saturate instead of wrapping into an
	// empty interval: both cover the whole column.
	for _, src := range []string{
		"SELECT COUNT(*) FROM P WHERE v BETWEEN 0 AND 1e19",
		"SELECT COUNT(*) FROM P WHERE v BETWEEN -1e19 AND 1e19",
	} {
		res, err := s.Exec("", src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != int64(s.cfg.N) {
			t.Errorf("%s: count %d, want %d", src, res.Count, s.cfg.N)
		}
	}
}

func TestExecErrors(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	cases := []string{
		"SELECT", // truncated
		"SELECT nope FROM P WHERE v BETWEEN 1 AND 2",    // unknown column
		"SELECT v FROM Nope WHERE v BETWEEN 1 AND 2",    // unknown table
		"SELECT SUM(no) FROM P WHERE v BETWEEN 1 AND 2", // unknown aggr column
	}
	for _, src := range cases {
		_, err := s.Exec("", src)
		if err == nil {
			t.Errorf("Exec(%q) succeeded", src)
			continue
		}
		if !isClientError(err) {
			t.Errorf("Exec(%q): %v not classified as client error", src, err)
		}
	}
	// Compile failures must not populate the cache.
	if hits, _, _ := s.CacheStats(); hits != 0 {
		t.Errorf("cache hits after errors = %d", hits)
	}
	// Inverted bounds are not an error: they select nothing, cold and
	// warm alike, so the answer does not depend on the cache.
	for call := 0; call < 2; call++ {
		res, err := s.Exec("", "SELECT COUNT(*) FROM P WHERE v BETWEEN 9 AND 7")
		if err != nil || res.Count != 0 || res.Cached != (call == 1) {
			t.Errorf("inverted bounds, call %d: %+v, %v", call+1, res, err)
		}
	}
}

func TestInvalidatePlansForcesRecompile(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	const q = "SELECT COUNT(*) FROM P WHERE v BETWEEN 1 AND 2"
	if _, err := s.Exec("", q); err != nil {
		t.Fatal(err)
	}
	r, err := s.Exec("", q)
	if err != nil || !r.Cached {
		t.Fatalf("warm exec: cached=%v err=%v", r.Cached, err)
	}
	s.InvalidatePlans()
	r, err = s.Exec("", q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Error("execution after InvalidatePlans still cached")
	}
}

// TestExplain: Explain renders the plan Exec runs — for every served
// read shape, the operator, the column, the interval the binds map to
// and the facade method — and a write explains as "".
func TestExplain(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	for _, c := range []struct{ src, want string }{
		{"SELECT COUNT(*) FROM P WHERE v BETWEEN 1 AND 2", "count sys.P.v [1, 2]: Column.Count"},
		{"select sum(v) from sys.P where v between 0.5 and 9.5;", "sum sys.P.v [1, 9]: Column.Sum"},
		{"SELECT v FROM P WHERE v BETWEEN -1e19 AND 1e19", "select sys.P.v [-9223372036854775808, 9223372036854775807]: Column.SelectRows"},
		{"INSERT INTO P VALUES (3)", ""},
	} {
		got, err := s.Explain(c.src)
		if err != nil || got != c.want {
			t.Errorf("Explain(%q) = %q, %v; want %q", c.src, got, err, c.want)
		}
	}
	// The explained plan is the one Exec then finds in the cache.
	res, err := s.Exec("", "SELECT COUNT(*) FROM P WHERE v BETWEEN 7 AND 9")
	if err != nil || !res.Cached {
		t.Errorf("Exec after Explain: cached=%v err=%v", res != nil && res.Cached, err)
	}
	for _, bad := range []string{
		"CREATE TABLE m (a)",
		"SELECT a FROM m WHERE a BETWEEN 1 AND 2",
	} {
		if _, err := s.Explain(bad); err == nil || !isClientError(err) {
			t.Errorf("Explain(%q) error %v, want a client error", bad, err)
		}
	}
}

func TestTenantIsolation(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	const q = "SELECT COUNT(*) FROM P WHERE v BETWEEN 0 AND 9999"
	a, err := s.Exec("alpha", q)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate alpha only; beta (and default) must not see the writes.
	colA, err := s.Tenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := colA.Insert(5000); err != nil {
			t.Fatal(err)
		}
	}
	a2, err := s.Exec("alpha", q)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Count != a.Count+10 {
		t.Errorf("alpha count after 10 inserts = %d, want %d", a2.Count, a.Count+10)
	}
	b, err := s.Exec("beta", q)
	if err != nil {
		t.Fatal(err)
	}
	if b.Count != int64(s.cfg.N) {
		t.Errorf("beta count = %d, want pristine %d", b.Count, s.cfg.N)
	}
	// Both tenants share the plan cache: beta's exec was a hit.
	if !b.Cached {
		t.Error("cross-tenant execution missed the shared cache")
	}
}

// TestTenantDurability: with a durability directory configured, each
// tenant logs into its own subdirectory, and a rebuilt server over the
// same directory recovers every tenant's committed writes.
func TestTenantDurability(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.Options.Durability = selforg.Durability{Dir: dir}
	const q = "SELECT COUNT(*) FROM P WHERE v BETWEEN 0 AND 9999"

	s := New(cfg)
	for _, tn := range []string{"alpha", "beta"} {
		col, err := s.Tenant(tn)
		if err != nil {
			t.Fatal(err)
		}
		if !col.Durable() {
			t.Fatalf("tenant %q column not durable", tn)
		}
		for i := 0; i < 5; i++ {
			if _, err := col.Insert(7_000); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Close()

	s2 := New(cfg)
	defer s2.Close()
	for _, tn := range []string{"alpha", "beta"} {
		res, err := s2.Exec(tn, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != int64(cfg.N)+5 {
			t.Errorf("tenant %q recovered count = %d, want %d", tn, res.Count, cfg.N+5)
		}
	}
	// Distinct per-tenant directories exist.
	for _, tn := range []string{"alpha", "beta"} {
		col, err := s2.Tenant(tn)
		if err != nil {
			t.Fatal(err)
		}
		if ws, ok := col.WALStats(); !ok || (ws.Replayed == 0 && ws.LastSeq == 0) {
			t.Errorf("tenant %q recovered nothing: %+v ok=%v", tn, ws, ok)
		}
	}
}

func TestTenantNames(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	for _, bad := range []string{"a b", "x/y", strings.Repeat("a", 33), "é"} {
		if _, err := s.Tenant(bad); err == nil {
			t.Errorf("Tenant(%q) accepted", bad)
		}
	}
	if _, err := s.Tenant(""); err != nil {
		t.Errorf("default tenant: %v", err)
	}
	if _, err := s.Tenant("ok-1_A"); err != nil {
		t.Errorf("Tenant(ok-1_A): %v", err)
	}
}

func TestGate(t *testing.T) {
	g := newGate(2, 1)
	r1, ok1 := g.acquire()
	r2, ok2 := g.acquire()
	if !ok1 || !ok2 {
		t.Fatal("worker-slot acquires shed")
	}
	// Third request: admitted (backlog ticket) but blocked on a slot.
	third := make(chan func(), 1)
	go func() {
		r, ok := g.acquire()
		if !ok {
			t.Error("backlog acquire shed")
			return
		}
		third <- r
	}()
	// Wait for the third request to hold its ticket.
	deadline := time.Now().Add(5 * time.Second)
	for len(g.tickets) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("backlog request never took its ticket")
		}
		time.Sleep(time.Millisecond)
	}
	// Fourth request: past workers+backlog, shed at the door.
	if _, ok := g.acquire(); ok {
		t.Fatal("4th acquire admitted past workers+backlog")
	}
	if g.Shed() != 1 {
		t.Errorf("shed = %d, want 1", g.Shed())
	}
	r1() // frees a slot: the backlogged request proceeds
	select {
	case r := <-third:
		r()
	case <-time.After(5 * time.Second):
		t.Fatal("backlogged request never got the freed slot")
	}
	r2()
	if len(g.tickets) != 0 || len(g.slots) != 0 {
		t.Errorf("gate not drained: %d tickets, %d slots", len(g.tickets), len(g.slots))
	}
}

// TestHandlerSheds429: with the only worker slot held and no backlog,
// a statement is shed at the door with 429 and an integer Retry-After,
// and the gate admits again once the slot is released.
func TestHandlerSheds429(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Backlog = -1
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func() *http.Response {
		resp, err := http.Post(ts.URL+"/sql", "text/plain",
			strings.NewReader("SELECT COUNT(*) FROM P WHERE v BETWEEN 1 AND 2"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	release, ok := s.gate.acquire()
	if !ok {
		t.Fatal("idle gate shed")
	}
	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d with the slot held, want 429", resp.StatusCode)
	}
	if _, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil {
		t.Errorf("Retry-After = %q, want integer seconds", resp.Header.Get("Retry-After"))
	}
	release()
	if resp := post(); resp.StatusCode != http.StatusOK {
		t.Errorf("status %d after release, want 200", resp.StatusCode)
	}
}

func TestHandlerErrors(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Parse error: 400 with the error offset.
	resp, err := http.Post(ts.URL+"/sql", "text/plain", strings.NewReader("SELECT v FROM"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Offset == nil {
		t.Fatalf("400 body has no offset: %+v", body)
	}
	if *body.Offset != len("SELECT v FROM") {
		t.Errorf("offset = %d, want %d", *body.Offset, len("SELECT v FROM"))
	}

	// One byte past the statement limit: 413 with the JSON error body.
	resp4, err := http.Post(ts.URL+"/sql", "text/plain",
		strings.NewReader(strings.Repeat(" ", maxStatementBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	var tooLarge errorBody
	err = json.NewDecoder(resp4.Body).Decode(&tooLarge)
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusRequestEntityTooLarge || err != nil || tooLarge.Error == "" {
		t.Errorf("oversized statement: status %d, body %+v (%v), want 413 with an error", resp4.StatusCode, tooLarge, err)
	}

	// GET /sql: 405.
	resp2, err := http.Get(ts.URL + "/sql")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /sql status = %d, want 405", resp2.StatusCode)
	}

	// Malformed tenant name: the client's mistake, 400 not 500.
	resp3, err := http.Post(ts.URL+"/sql?tenant=..%2Fetc", "text/plain",
		strings.NewReader("SELECT COUNT(*) FROM P WHERE v BETWEEN 1 AND 2"))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("bad tenant status = %d, want 400", resp3.StatusCode)
	}
}

func TestHandlerWriteAndFlush(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before, err := s.Exec("", "SELECT COUNT(*) FROM P WHERE v BETWEEN 0 AND 9999")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/sql", "text/plain", strings.NewReader("INSERT INTO P VALUES (123)"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("INSERT over /sql status = %d", resp.StatusCode)
	}
	after, err := s.Exec("", "SELECT COUNT(*) FROM P WHERE v BETWEEN 0 AND 9999")
	if err != nil {
		t.Fatal(err)
	}
	if after.Count != before.Count+1 {
		t.Errorf("count after insert = %d, want %d", after.Count, before.Count+1)
	}

	resp2, err := http.Post(ts.URL+"/plans/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var flushed struct {
		Flushed bool  `json:"flushed"`
		Epoch   int64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&flushed); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if !flushed.Flushed || flushed.Epoch == 0 {
		t.Errorf("flush response = %+v", flushed)
	}
	r, err := s.Exec("", "SELECT COUNT(*) FROM P WHERE v BETWEEN 0 AND 9999")
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Error("cached after /plans/flush")
	}
}

// TestConcurrentTenantCreation: many goroutines racing on the same
// fresh tenant must all see the same column.
func TestConcurrentTenantCreation(t *testing.T) {
	cfg := testConfig()
	cfg.N = 2000
	s := New(cfg)
	defer s.Close()
	var wg sync.WaitGroup
	cols := make([]*selforg.Column, 8)
	for i := range cols {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			col, err := s.Tenant("shared")
			if err != nil {
				t.Error(err)
				return
			}
			cols[i] = col
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(cols); i++ {
		if cols[i] != cols[0] {
			t.Fatal("racing Tenant calls built different columns")
		}
	}
}

// TestWideExtentTenant: a tenant over an extent of 2^63 values or more
// (where Range.Width wraps) is generated, built and answers COUNT over
// POST /sql.
func TestWideExtentTenant(t *testing.T) {
	for _, ext := range []selforg.Interval{
		{Lo: math.MinInt64, Hi: math.MaxInt64},
		{Lo: 0, Hi: math.MaxInt64},
	} {
		cfg := testConfig()
		cfg.Extent, cfg.N = ext, 2000
		s := New(cfg)
		ts := httptest.NewServer(s.Handler())
		resp, err := http.Post(ts.URL+"/sql", "text/plain",
			strings.NewReader("SELECT COUNT(*) FROM P WHERE v BETWEEN -1e19 AND 1e19"))
		if err != nil {
			t.Fatalf("%v: %v", ext, err)
		}
		var body struct {
			Count int64 `json:"count"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		ts.Close()
		s.Close()
		if resp.StatusCode != http.StatusOK || err != nil || body.Count != int64(cfg.N) {
			t.Errorf("%v: status %d, count %d (%v), want 200 with count %d", ext, resp.StatusCode, body.Count, err, cfg.N)
		}
	}
}
