package server

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"selforg"
)

// raceEnabled is set by race_test.go under -race, which changes what
// allocates.
var raceEnabled bool

// decimalEdges are the values where a digit count changes: 0, ±1, and
// 10^k−1, 10^k and 10^k+1 of both signs for k = 1…18, and the int64
// extremes.
func decimalEdges() []int64 {
	vals := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	p := int64(1)
	for k := 1; k <= 18; k++ {
		p *= 10
		for _, v := range []int64{p - 1, p, p + 1} {
			vals = append(vals, v, -v)
		}
	}
	return vals
}

// strconvInts is the reference the kernel is held to: ",v" per value,
// written by strconv.AppendInt.
func strconvInts(dst []byte, vals []int64) []byte {
	for _, v := range vals {
		dst = strconv.AppendInt(append(dst, ','), v, 10)
	}
	return dst
}

// TestDecimalMatchesStrconv holds appendInt and appendInts to
// strconv.AppendInt at every digit-count edge: each value alone after a
// prefix, each value as one element of a block, and the whole table as
// one block in a buffer holding exactly maxIntLen bytes per value, so
// that any 8-byte store past the bound panics.
func TestDecimalMatchesStrconv(t *testing.T) {
	edges := decimalEdges()
	prefix := []byte(`{"x":`)
	for _, v := range edges {
		want := strconv.AppendInt(append([]byte{}, prefix...), v, 10)
		if got := appendInt(append([]byte{}, prefix...), v); !bytes.Equal(got, want) {
			t.Errorf("appendInt(%d) = %q, want %q", v, got, want)
		}
		for _, block := range [][]int64{{v}, {7, v, 7}, {v, v}} {
			want := strconvInts(append([]byte{}, prefix...), block)
			if got := appendInts(append([]byte{}, prefix...), block); !bytes.Equal(got, want) {
				t.Errorf("appendInts(%v) = %q, want %q", block, got, want)
			}
		}
	}
	dst := make([]byte, len(prefix), len(prefix)+maxIntLen*len(edges))
	copy(dst, prefix)
	got := appendInts(dst, edges)
	if want := strconvInts(append([]byte{}, prefix...), edges); !bytes.Equal(got, want) {
		t.Fatalf("appendInts(edges) = %q, want %q", got, want)
	}
	if &got[0] != &dst[0] {
		t.Errorf("appendInts grew a buffer with maxIntLen bytes per value to spare")
	}
}

// TestDecimalRandomWidths compares the kernel with strconv on random
// values of every bit width, both signs, one block per width.
func TestDecimalRandomWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for w := 1; w <= 64; w++ {
		vals := make([]int64, 500)
		for i := range vals {
			vals[i] = int64(rng.Uint64() >> (64 - w))
			if w < 64 && rng.Intn(2) == 0 {
				vals[i] = -vals[i]
			}
		}
		if got, want := appendInts(nil, vals), strconvInts(nil, vals); !bytes.Equal(got, want) {
			t.Fatalf("width %d: appendInts differs from strconv", w)
		}
	}
}

// streamInts streams chunks through ints as Rows.encode does, into a
// buffer already holding fill bytes, and returns the writer.
func streamInts(t testing.TB, fill int, chunks [][]int64) *recordingWriter {
	t.Helper()
	w := newRecordingWriter()
	e := wire{buf: make([]byte, fill, wireBufSize), w: w, status: http.StatusOK}
	e.buf = append(e.buf, '[')
	n := 0
	for _, c := range chunks {
		if !e.ints(c, &n) {
			t.Fatal("ints failed on a writer that does not fail")
		}
	}
	e.buf = append(e.buf, ']')
	e.flush()
	return w
}

// FuzzWireInts streams a multi-chunk rope through the wire from any
// buffer fill level a checked write can leave: the body must be the rows
// array appendJSON writes, every flush at most wireBufSize. Then the
// whole answer goes through send with a fingerprint of arbitrary length,
// so the envelope's tail lands anywhere in the last buffer, and must
// again equal appendJSON in flushes of at most wireBufSize.
func FuzzWireInts(f *testing.F) {
	f.Add(int64(1), uint16(5000), uint8(20), uint16(0), []byte{3, 200, 17}, int64(math.MinInt64), uint16(0))
	f.Add(int64(2), uint16(9000), uint8(64), uint16(32700), []byte{0, 0, 255}, int64(-1), uint16(300))
	f.Add(int64(3), uint16(4), uint8(30), uint16(32767), []byte{}, int64(math.MaxInt64), uint16(40))
	f.Fuzz(func(t *testing.T, seed int64, count uint16, width uint8, fill uint16, cuts []byte, edge int64, fpLen uint16) {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]int64, count)
		for i := range vals {
			vals[i] = int64(rng.Uint64() >> (63 - uint(width)%64))
		}
		if len(vals) > 0 {
			vals[rng.Intn(len(vals))] = edge
		}
		var chunks [][]int64
		rest := vals
		for _, c := range cuts {
			k := min(len(rest), int(c)*int(c))
			chunks, rest = append(chunks, rest[:k]), rest[k:]
		}
		chunks = append(chunks, rest)
		pad := int(fill) % (wireBufSize - wireSlack + 1) // every checked write leaves wireSlack
		w := streamInts(t, pad, chunks)
		res := &Result{Op: "select", Rows: NewRows(vals), Fingerprint: strings.Repeat("f", int(fpLen))}
		whole := res.appendJSON(nil)
		rows := whole[bytes.Index(whole, []byte(`"rows":`))+len(`"rows":`):]
		rows = rows[:bytes.IndexByte(rows, ']')+1]
		if body := w.body.Bytes(); !bytes.Equal(body[pad:], rows) {
			t.Fatalf("streamed rows (%d B) differ from appendJSON's (%d B)", len(body)-pad, len(rows))
		}
		want := []byte("[]")
		if len(vals) > 0 {
			want = append(append([]byte{'['}, strconvInts(nil, vals)[1:]...), ']')
		}
		if !bytes.Equal(rows, want) {
			t.Fatalf("appendJSON's rows differ from strconv")
		}
		sent := newRecordingWriter()
		send(sent, http.StatusOK, res.encode)
		if !bytes.Equal(sent.body.Bytes(), whole) {
			t.Fatalf("sent body (%d B) differs from appendJSON (%d B)", sent.body.Len(), len(whole))
		}
		for _, rw := range []*recordingWriter{w, sent} {
			for _, n := range rw.writes {
				if n > wireBufSize {
					t.Fatalf("a %d-byte flush exceeds the %d-byte buffer", n, wireBufSize)
				}
			}
		}
	})
}

// TestWireIntsDoNotAllocate pins the streaming path at zero
// allocations once its buffer exists: a 20 000-value chunk goes out in
// several flushes without growing it.
func TestWireIntsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	vals := make([]int64, 20_000)
	for i := range vals {
		vals[i] = int64(i) * 52_361 % (1 << 20)
	}
	e := wire{buf: make([]byte, 0, wireBufSize), w: &discardWriter{header: http.Header{}}}
	if got := testing.AllocsPerRun(20, func() {
		e.buf = append(e.buf[:0], '[')
		n := 0
		e.ints(vals, &n)
		e.flush()
	}); got != 0 {
		t.Errorf("streaming a chunk allocates %.0f times, want 0", got)
	}
	if cap(e.buf) != wireBufSize {
		t.Errorf("the buffer grew to %d bytes", cap(e.buf))
	}
}

// TestSelectAllocatesAboutItsAnswer pins what a converged
// scan_wide-shaped SELECT (encoded segments, ~20 000 rows) allocates end
// to end through the handler: at most 1.25× the answer's rows as int64s.
// The rows are decoded out of the encoded segments once, into the result
// rope, and the wire writes from there into its pooled buffer.
func TestSelectAllocatesAboutItsAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	s := New(Config{
		Extent: selforg.Interval{Lo: 0, Hi: 1<<20 - 1},
		N:      400_000,
		Seed:   21,
		Options: selforg.Options{Strategy: selforg.Segmentation, Model: selforg.APM,
			APMMin: 64 << 10, APMMax: 256 << 10, Compression: selforg.CompressionAuto},
		MaxRows:  100_000,
		Observer: selforg.NewObserver(),
	})
	defer s.Close()
	const stmt = "SELECT v FROM P WHERE v BETWEEN 300000 AND 352427" // 5 % of the domain
	for i := 0; i < 10; i++ {
		if _, err := s.Exec("", stmt); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Exec("", stmt)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows.Len()
	if rows < 15_000 {
		t.Fatalf("%d rows, want a ~20 000-row answer", rows)
	}
	h, w := s.Handler(), &discardWriter{header: http.Header{}}
	serve := func() {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/sql", strings.NewReader(stmt)))
	}
	serve()
	const runs = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	perSelect := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%d rows, %.0f B per select (%.2f×)", rows, perSelect, perSelect/float64(8*rows))
	if answer := float64(8 * rows); perSelect > 1.25*answer {
		t.Errorf("a %d-row SELECT allocates %.0f B, %.2f× its %.0f-byte answer; want ≤ 1.25×",
			rows, perSelect, perSelect/answer, answer)
	}
}
