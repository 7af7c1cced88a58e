package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"selforg"
	"selforg/internal/server"
)

// newTestServer stands up the same service surface main serves, on an
// httptest listener with a small column and isolated metrics.
func newTestServer(t *testing.T, mutate func(*server.Config)) (*server.Server, *httptest.Server) {
	t.Helper()
	cfg := server.Config{
		Extent:   selforg.Interval{Lo: 0, Hi: 9999},
		N:        20_000,
		Seed:     7,
		MaxRows:  100,
		Observer: selforg.NewObserver(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv := server.New(cfg)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postSQL(t *testing.T, url, stmt string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/sql", "text/plain", strings.NewReader(stmt))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func decodeResult(t *testing.T, body []byte) *server.Result {
	t.Helper()
	var r server.Result
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return &r
}

func TestSQLHappyPaths(t *testing.T) {
	_, ts := newTestServer(t, nil)

	resp, body := postSQL(t, ts.URL, "SELECT v FROM P WHERE v BETWEEN 42 AND 52")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SELECT status %d: %s", resp.StatusCode, body)
	}
	sel := decodeResult(t, body)
	if sel.Op != "select" || sel.Count == 0 || int64(sel.Rows.Len()) != sel.Count {
		t.Errorf("SELECT result = %+v", sel)
	}
	for _, v := range sel.Rows.Values() {
		if v < 42 || v > 52 {
			t.Errorf("row %d outside [42, 52]", v)
		}
	}

	resp, body = postSQL(t, ts.URL, "SELECT COUNT(*) FROM P WHERE v BETWEEN 42 AND 52")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("COUNT status %d: %s", resp.StatusCode, body)
	}
	cnt := decodeResult(t, body)
	if cnt.Op != "count" || cnt.Count != sel.Count {
		t.Errorf("COUNT(*) = %+v, want count %d", cnt, sel.Count)
	}

	resp, body = postSQL(t, ts.URL, "SELECT SUM(v) FROM P WHERE v BETWEEN 42 AND 52")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SUM status %d: %s", resp.StatusCode, body)
	}
	sum := decodeResult(t, body)
	var want int64
	for _, v := range sel.Rows.Values() {
		want += v
	}
	if sum.Op != "sum" || sum.Sum != want {
		t.Errorf("SUM(v) = %+v, want %d", sum, want)
	}
}

func TestSQLParseErrorPosition(t *testing.T) {
	_, ts := newTestServer(t, nil)
	const stmt = "SELECT v FROM P WHERE v BETWEEN 1 OR 2"
	resp, body := postSQL(t, ts.URL, stmt)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	var e struct {
		Error  string `json:"error"`
		Offset *int   `json:"offset"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Offset == nil {
		t.Fatalf("no offset in %s", body)
	}
	if *e.Offset != strings.Index(stmt, "OR") {
		t.Errorf("offset = %d, want %d (position of OR)", *e.Offset, strings.Index(stmt, "OR"))
	}
	if !strings.Contains(e.Error, "AND") {
		t.Errorf("error %q does not name the expected token", e.Error)
	}
}

func TestTenantIsolationOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, nil)
	const stmt = "SELECT COUNT(*) FROM P WHERE v BETWEEN 0 AND 9999"

	post := func(tenant string) *server.Result {
		resp, err := http.Post(ts.URL+"/sql?tenant="+tenant, "text/plain", strings.NewReader(stmt))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant %q status %d: %s", tenant, resp.StatusCode, body)
		}
		return decodeResult(t, body)
	}

	before := post("alice")
	// Write into alice only.
	for i := 0; i < 5; i++ {
		resp, err := http.Post(ts.URL+"/sql?tenant=alice", "text/plain",
			strings.NewReader("INSERT INTO P VALUES (777)"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("INSERT status %d", resp.StatusCode)
		}
	}
	after := post("alice")
	if after.Count != before.Count+5 {
		t.Errorf("alice count = %d, want %d", after.Count, before.Count+5)
	}
	bob := post("bob")
	if bob.Count != before.Count {
		t.Errorf("bob count = %d, want pristine %d — tenant bleed", bob.Count, before.Count)
	}
	if bob.Tenant != "bob" || after.Tenant != "alice" {
		t.Errorf("responses carry tenants %q/%q", after.Tenant, bob.Tenant)
	}
}

// TestMetricsCacheCounters scrapes /metrics and asserts the plan
// cache's hit/miss counters move with traffic.
func TestMetricsCacheCounters(t *testing.T) {
	_, ts := newTestServer(t, nil)

	scrape := func(name string) int64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
		m := re.FindSubmatch(body)
		if m == nil {
			t.Fatalf("metric %s not in exposition:\n%s", name, body)
		}
		v, _ := strconv.ParseInt(string(m[1]), 10, 64)
		return v
	}

	if h := scrape("plancache_hits_total"); h != 0 {
		t.Fatalf("fresh server has %d hits", h)
	}
	postSQL(t, ts.URL, "SELECT COUNT(*) FROM P WHERE v BETWEEN 1 AND 2")
	if m := scrape("plancache_misses_total"); m != 1 {
		t.Errorf("misses after cold query = %d, want 1", m)
	}
	postSQL(t, ts.URL, "SELECT COUNT(*) FROM P WHERE v BETWEEN 500 AND 600")
	postSQL(t, ts.URL, "select count ( * ) from P where v between 7 and 8;")
	if h := scrape("plancache_hits_total"); h != 2 {
		t.Errorf("hits after two warm queries = %d, want 2", h)
	}
	if sz := scrape("plancache_size"); sz != 1 {
		t.Errorf("plancache_size = %d, want 1", sz)
	}
}

// TestGracefulShutdownDrainsCommitter: serve must return once its
// context is cancelled (main cancels it on SIGINT/SIGTERM), having closed
// the tenants' group committers and shard logs on the way out — an acked
// INSERT is recovered by the next process over the same WAL directory.
func TestGracefulShutdownDrainsCommitter(t *testing.T) {
	cfg := server.Config{
		Extent:   selforg.Interval{Lo: 0, Hi: 9999},
		N:        5_000,
		Seed:     7,
		Observer: selforg.NewObserver(),
		Options:  selforg.Options{Durability: selforg.Durability{Dir: t.TempDir()}},
	}
	const probe = "SELECT COUNT(*) FROM P WHERE v BETWEEN 4242 AND 4242"

	srv := server.New(cfg)
	col, err := srv.Tenant("")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	returned := make(chan error, 1)
	go func() { returned <- serve(ctx, srv, ln) }()

	url := "http://" + ln.Addr().String()
	_, body := postSQL(t, url, probe)
	before := decodeResult(t, body).Count
	if resp, body := postSQL(t, url, "INSERT INTO P VALUES (4242)"); resp.StatusCode != http.StatusOK {
		t.Fatalf("INSERT status %d: %s", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-returned:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not return after its context was cancelled")
	}
	if _, err := http.Post(url+"/sql", "text/plain", strings.NewReader(probe)); err == nil {
		t.Error("listener still accepting after shutdown")
	}
	if _, err := col.Insert(1); err == nil || !strings.Contains(err.Error(), "committer closed") {
		t.Errorf("write after shutdown: err = %v, want committer closed", err)
	}

	cfg.Observer = selforg.NewObserver()
	reopened := server.New(cfg)
	defer reopened.Close()
	res, err := reopened.Exec("", probe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != before+1 {
		t.Errorf("after reopen COUNT(4242) = %d, want %d (acked INSERT lost)", res.Count, before+1)
	}
}
