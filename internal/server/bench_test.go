package server

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"selforg"
)

// benchServer is the benchmark fixture: a mid-size column, full rows
// disabled (count queries) so the measured work is the query tier, not
// JSON volume.
func benchServer(b *testing.B) *Server {
	b.Helper()
	s := New(Config{
		Extent:   selforg.Interval{Lo: 0, Hi: 99_999},
		N:        200_000,
		Seed:     3,
		MaxRows:  100,
		Observer: selforg.NewObserver(),
	})
	b.Cleanup(s.Close)
	if _, err := s.Tenant(""); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSQLColdVsWarmPlan measures what the plan cache buys: Cold
// flushes the cache before every statement (parse → bind → publish every
// time), Warm replays one shape with varying constants (one lex pass +
// cache hit). The execution against the column is identical in both
// arms, so the difference is pure front-end cost.
func BenchmarkSQLColdVsWarmPlan(b *testing.B) {
	// A fixed 16-range working set: the column converges after the first
	// pass, so steady-state iterations isolate the per-statement front-end
	// cost the two arms differ in.
	stmt := func(i int) string {
		lo := (i % 16) * 5_000
		return fmt.Sprintf("SELECT COUNT(*) FROM P WHERE v BETWEEN %d AND %d", lo, lo+500)
	}
	b.Run("Cold", func(b *testing.B) {
		s := benchServer(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.InvalidatePlans()
			if _, err := s.Exec("", stmt(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Warm", func(b *testing.B) {
		s := benchServer(b)
		if _, err := s.Exec("", stmt(0)); err != nil { // populate
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := s.Exec("", stmt(i+1))
			if err != nil {
				b.Fatal(err)
			}
			if !res.Cached {
				b.Fatal("warm arm missed the cache")
			}
		}
	})
}

// BenchmarkSQLInsertThroughput measures the SQL write path end to end:
// normalize → plan cache → facade → MVCC delta store, one INSERT
// statement per iteration. Every iteration has the same shape, so all
// but the first hit the cached plan.
func BenchmarkSQLInsertThroughput(b *testing.B) {
	s := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stmt := fmt.Sprintf("INSERT INTO P VALUES (%d)", (i*131)%100_000)
		res, err := s.Exec("", stmt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Count != 1 {
			b.Fatalf("insert affected %d rows", res.Count)
		}
	}
}

// BenchmarkSoserveThroughput is the end-to-end service number: POST
// /sql over a real HTTP listener, admission gate and JSON envelope
// included, parallel clients sharing one warm plan.
func BenchmarkSoserveThroughput(b *testing.B) {
	s := benchServer(b)
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	client := ts.Client()
	if _, err := s.Exec("", "SELECT COUNT(*) FROM P WHERE v BETWEEN 0 AND 500"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			lo := (i * 131) % 90_000
			stmt := fmt.Sprintf("SELECT COUNT(*) FROM P WHERE v BETWEEN %d AND %d", lo, lo+500)
			resp, err := client.Post(ts.URL+"/sql", "text/plain", strings.NewReader(stmt))
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
			io.Copy(io.Discard, resp.Body) // drain for keep-alive reuse
			resp.Body.Close()
		}
	})
}

// discardWriter is a ResponseWriter that drops the body.
type discardWriter struct{ header http.Header }

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// BenchmarkServerSelectLarge measures a large row-returning SELECT end
// to end through the wire path: the handler executes against the column
// and streams the compact envelope, rows read out of the result rope,
// into a discarding ResponseWriter in bounded flushes. The flat []int64
// and the JSON text are never held whole, so B/op is the rope and the
// request, not the answer.
func BenchmarkServerSelectLarge(b *testing.B) {
	s := New(Config{
		Extent:   selforg.Interval{Lo: 0, Hi: 99_999},
		N:        200_000,
		Seed:     3,
		MaxRows:  250_000,
		Observer: selforg.NewObserver(),
	})
	b.Cleanup(s.Close)
	const stmt = "SELECT v FROM P WHERE v BETWEEN 0 AND 99999"
	// Warm the plan cache and converge the column.
	for i := 0; i < 20; i++ {
		if _, err := s.Exec("", stmt); err != nil {
			b.Fatal(err)
		}
	}
	h := s.Handler()
	w := &discardWriter{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/sql", strings.NewReader(stmt)))
	}
}

// BenchmarkWireInts measures the streaming row encoder alone: 20 000
// values (a scan_wide SELECT's worth) through wire.ints into a pooled
// buffer flushed to a discarding writer, reported as ns per value.
// Values below 2^20 are scan_wide's, 30-bit ones mixed_rw's; full is
// full-range int64 (negatives and 19 digits).
func BenchmarkWireInts(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	for _, c := range []struct {
		name string
		val  func() int64
	}{
		{"lt2^20", func() int64 { return rng.Int63n(1 << 20) }},
		{"30bit", func() int64 { return rng.Int63n(1 << 30) }},
		{"full", func() int64 { return int64(rng.Uint64()) }},
	} {
		vals := make([]int64, 20_000)
		for i := range vals {
			vals[i] = c.val()
		}
		b.Run(c.name, func(b *testing.B) {
			e := wire{buf: make([]byte, 0, wireBufSize), w: &discardWriter{header: http.Header{}}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.buf = append(e.buf[:0], '[')
				n := 0
				e.ints(vals, &n)
				e.flush()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/value")
		})
	}
}
