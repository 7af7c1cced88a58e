package core

import (
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"selforg/internal/compress"
	"selforg/internal/domain"
	"selforg/internal/model"
	"selforg/internal/obs"
)

// denseColumn returns values 0..n-1, one per domain point of [0, n-1].
func denseColumn(n int64) []domain.Value {
	vs := make([]domain.Value, n)
	for i := range vs {
		vs[i] = int64(i)
	}
	return vs
}

func refSelect(vals []domain.Value, q domain.Range) []domain.Value {
	var out []domain.Value
	for _, v := range vals {
		if q.Contains(v) {
			out = append(out, v)
		}
	}
	return out
}

func asSortedInts(vs []domain.Value) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalMultiset(t *testing.T, got, want []domain.Value) {
	t.Helper()
	g, w := asSortedInts(got), asSortedInts(want)
	if len(g) != len(w) {
		t.Fatalf("result size %d, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("result[%d] = %d, want %d", i, g[i], w[i])
		}
	}
}

// countTracer verifies Tracer plumbing and storage conservation.
type countTracer struct {
	scans, mats, drops int
	liveBytes          int64
}

func (c *countTracer) Scan(_, _ int64) { c.scans++ }
func (c *countTracer) Materialize(_, b int64) {
	c.mats++
	c.liveBytes += b
}
func (c *countTracer) Drop(_, b int64) {
	c.drops++
	c.liveBytes -= b
}

// figure3Setup builds the worked example of Figure 3 (see test comments):
// dense 1000-value column over [0, 999], 1 byte/value, APM 100/350.
func figure3Setup(tr Tracer) *Segmenter {
	return NewSegmenter(domain.NewRange(0, 999), denseColumn(1000), 1, model.NewAPM(100, 350), tr)
}

func TestSegmenterFigure3Walkthrough(t *testing.T) {
	s := figure3Setup(nil)
	if s.SegmentCount() != 1 {
		t.Fatalf("initial state S0 must be a single segment, got %d", s.SegmentCount())
	}

	// Q1 [300,599]: all three pieces (300/300/400 bytes) >= Mmin=100 →
	// rule 2 reorganizes the column into three segments.
	res, st := s.Select(domain.NewRange(300, 599))
	if len(res) != 300 {
		t.Errorf("Q1 result = %d, want 300", len(res))
	}
	if s.SegmentCount() != 3 {
		t.Fatalf("after Q1: %d segments, want 3\n%s", s.SegmentCount(), s.List().Dump())
	}
	if st.ReadBytes != 1000 || st.WriteBytes != 1000 {
		t.Errorf("Q1 reads/writes = %d/%d, want 1000/1000", st.ReadBytes, st.WriteBytes)
	}

	// Q2 [100,349]: splits the first sub-segment ([0,299] → 100+200) but
	// not the second ([300,599]: the 50-byte selection piece is under
	// Mmin and SizeS=300 <= Mmax → rule 3 leaves it intact). Q2 must not
	// scan the last segment [600,999] — it "immediately benefits from the
	// reorganization triggered by the first query".
	res, st = s.Select(domain.NewRange(100, 349))
	if len(res) != 250 {
		t.Errorf("Q2 result = %d, want 250", len(res))
	}
	if s.SegmentCount() != 4 {
		t.Fatalf("after Q2: %d segments, want 4\n%s", s.SegmentCount(), s.List().Dump())
	}
	if st.ReadBytes != 600 {
		t.Errorf("Q2 reads = %d, want 600 (must skip [600,999])", st.ReadBytes)
	}
	if st.WriteBytes != 300 {
		t.Errorf("Q2 writes = %d, want 300 (only [0,299] reorganized)", st.WriteBytes)
	}

	// Q3 [600,619]: small selectivity on the last segment (400 bytes >
	// Mmax): the border split would cut a 20-byte piece < Mmin, so rule 3
	// splits at the mean value of the segment (799).
	res, st = s.Select(domain.NewRange(600, 619))
	if len(res) != 20 {
		t.Errorf("Q3 result = %d, want 20", len(res))
	}
	if s.SegmentCount() != 5 {
		t.Fatalf("after Q3: %d segments, want 5\n%s", s.SegmentCount(), s.List().Dump())
	}
	last := s.List().Seg(3)
	if !last.Rng.Equal(domain.NewRange(600, 799)) {
		t.Errorf("mean split wrong: segment 3 = %v, want [600, 799]", last.Rng)
	}
	if err := s.List().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmenterResultCorrectAcrossModels(t *testing.T) {
	vals := denseColumn(1000)
	models := []model.Model{
		model.Never{},
		model.Always{},
		model.NewAPM(50, 200),
		model.NewGaussianDice(7),
	}
	queries := []domain.Range{
		domain.NewRange(0, 999),
		domain.NewRange(0, 10),
		domain.NewRange(990, 999),
		domain.NewRange(123, 456),
		domain.NewRange(500, 500),
	}
	for _, m := range models {
		s := NewSegmenter(domain.NewRange(0, 999), vals, 4, m, nil)
		for _, q := range queries {
			res, st := s.Select(q)
			equalMultiset(t, res, refSelect(vals, q))
			if st.ResultCount != int64(len(res)) {
				t.Errorf("%s: ResultCount = %d, want %d", m.Name(), st.ResultCount, len(res))
			}
			if err := s.List().Validate(); err != nil {
				t.Fatalf("%s after %v: %v", m.Name(), q, err)
			}
		}
	}
}

func TestSegmenterNeverModelFullScans(t *testing.T) {
	vals := denseColumn(100)
	s := NewSegmenter(domain.NewRange(0, 99), vals, 4, model.Never{}, nil)
	_, st := s.Select(domain.NewRange(10, 19))
	if st.ReadBytes != 400 {
		t.Errorf("NoSegm read = %d, want full column 400", st.ReadBytes)
	}
	if st.WriteBytes != 0 || st.Splits != 0 {
		t.Errorf("NoSegm must not reorganize: %+v", st)
	}
	if s.SegmentCount() != 1 {
		t.Errorf("NoSegm segment count = %d", s.SegmentCount())
	}
}

func TestSegmenterStorageConstant(t *testing.T) {
	// Adaptive segmentation reorganizes in place: storage stays exactly
	// the column size no matter how many splits happen.
	vals := denseColumn(2000)
	s := NewSegmenter(domain.NewRange(0, 1999), vals, 4, model.Always{}, nil)
	want := s.StorageBytes()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		a, b := rng.Int63n(2000), rng.Int63n(2000)
		if a > b {
			a, b = b, a
		}
		s.Select(domain.Range{Lo: a, Hi: b})
		if s.StorageBytes() != want {
			t.Fatalf("storage changed to %v after query %d", s.StorageBytes(), i)
		}
	}
	if err := s.List().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmenterReadsShrinkUnderRepetition(t *testing.T) {
	// The central benefit claim (§6.1.2): repeated queries over the same
	// range stop scanning the whole column once segmentation converges.
	vals := denseColumn(10_000)
	s := NewSegmenter(domain.NewRange(0, 9999), vals, 4, model.NewAPM(64, 512), nil)
	q := domain.NewRange(4000, 4999)
	_, first := s.Select(q)
	var last QueryStats
	for i := 0; i < 5; i++ {
		_, last = s.Select(q)
	}
	if first.ReadBytes != 40_000 {
		t.Errorf("first read = %d, want full column", first.ReadBytes)
	}
	if last.ReadBytes >= first.ReadBytes {
		t.Errorf("reads did not shrink: first %d, later %d", first.ReadBytes, last.ReadBytes)
	}
	// Converged reads equal the result-bearing segment alone.
	if last.ReadBytes != 4000 {
		t.Errorf("converged reads = %d, want 4000", last.ReadBytes)
	}
	if last.WriteBytes != 0 {
		t.Errorf("converged writes = %d, want 0", last.WriteBytes)
	}
}

func TestSegmenterTracerConservation(t *testing.T) {
	tr := &countTracer{}
	vals := denseColumn(1000)
	s := NewSegmenter(domain.NewRange(0, 999), vals, 1, model.Always{}, tr)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		a, b := rng.Int63n(1000), rng.Int63n(1000)
		if a > b {
			a, b = b, a
		}
		s.Select(domain.Range{Lo: a, Hi: b})
	}
	if tr.liveBytes != int64(s.StorageBytes()) {
		t.Errorf("tracer live bytes %d != storage %v", tr.liveBytes, s.StorageBytes())
	}
	if tr.mats == 0 || tr.scans == 0 || tr.drops == 0 {
		t.Errorf("tracer events missing: %+v", tr)
	}
}

func TestSegmenterAPMSizesConverge(t *testing.T) {
	// §3.2.2: "sizes of segments touched by queries converge relatively
	// fast to the interval Mmin <= SizeS <= Mmax". Hammer the column with
	// random queries, then check every touched segment obeys the bounds.
	const elem = 4
	mmin, mmax := int64(256), int64(1024)
	vals := denseColumn(8192)
	s := NewSegmenter(domain.NewRange(0, 8191), vals, elem, model.NewAPM(mmin, mmax), nil)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 3000; i++ {
		lo := rng.Int63n(8192 - 64)
		s.Select(domain.Range{Lo: lo, Hi: lo + 63})
	}
	for i := 0; i < s.List().Len(); i++ {
		b := int64(s.List().Seg(i).Bytes(elem))
		if b > mmax {
			t.Errorf("segment %d size %d exceeds Mmax %d", i, b, mmax)
		}
	}
}

func TestSegmenterGlue(t *testing.T) {
	vals := denseColumn(1000)
	s := NewSegmenter(domain.NewRange(0, 999), vals, 1, model.Always{}, nil)
	s.Select(domain.NewRange(100, 199))
	s.Select(domain.NewRange(500, 599))
	if s.SegmentCount() < 4 {
		t.Fatalf("setup failed: %d segments", s.SegmentCount())
	}
	before := s.SegmentCount()
	rewritten := s.Glue(0, 1)
	if s.SegmentCount() != before-1 {
		t.Errorf("glue did not merge: %d", s.SegmentCount())
	}
	if rewritten <= 0 {
		t.Errorf("glue rewrote %d bytes", rewritten)
	}
	if err := s.List().Validate(); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Select(domain.NewRange(0, 999))
	equalMultiset(t, res, vals)
}

func TestSegmenterGlueSmall(t *testing.T) {
	// Fragment the column with Always, then merge everything below a
	// threshold; afterwards at most one segment below the threshold may
	// remain per run boundary, and data must be intact.
	vals := denseColumn(4096)
	s := NewSegmenter(domain.NewRange(0, 4095), vals, 1, model.Always{}, nil)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		lo := rng.Int63n(4000)
		s.Select(domain.Range{Lo: lo, Hi: lo + rng.Int63n(90) + 5})
	}
	frag := s.SegmentCount()
	if frag < 20 {
		t.Fatalf("expected heavy fragmentation, got %d segments", frag)
	}
	s.GlueSmall(64)
	if s.SegmentCount() >= frag {
		t.Errorf("GlueSmall did not reduce segments: %d -> %d", frag, s.SegmentCount())
	}
	if err := s.List().Validate(); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Select(domain.NewRange(0, 4095))
	equalMultiset(t, res, vals)
}

func TestSegmenterPropertyRandomWorkload(t *testing.T) {
	// Property: under random queries and every model, results always equal
	// the reference filter and the meta-index stays valid.
	rng := rand.New(rand.NewSource(77))
	vals := make([]domain.Value, 3000)
	for i := range vals {
		vals[i] = rng.Int63n(10_000)
	}
	for _, m := range []model.Model{model.NewAPM(30, 120), model.NewGaussianDice(3), model.Always{}} {
		s := NewSegmenter(domain.NewRange(0, 9999), vals, 1, m, nil)
		for i := 0; i < 150; i++ {
			a, b := rng.Int63n(10_000), rng.Int63n(10_000)
			if a > b {
				a, b = b, a
			}
			q := domain.Range{Lo: a, Hi: b}
			res, _ := s.Select(q)
			equalMultiset(t, res, refSelect(vals, q))
			if err := s.List().Validate(); err != nil {
				t.Fatalf("%s query %d: %v", m.Name(), i, err)
			}
		}
	}
}

func TestSegmenterName(t *testing.T) {
	s := figure3Setup(nil)
	if s.Name() != "APM 100B-350B Segm" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestSegmenterSegmentSizes(t *testing.T) {
	s := figure3Setup(nil)
	s.Select(domain.NewRange(300, 599))
	sizes := s.SegmentSizes()
	if len(sizes) != 3 {
		t.Fatalf("sizes = %v", sizes)
	}
	total := 0.0
	for _, b := range sizes {
		total += b
	}
	if total != 1000 {
		t.Errorf("total size = %v, want 1000", total)
	}
}

// convergedSegmenter builds a compress.Auto APM Segmenter over n uniform
// values of [0, 2^20) and replays probes until a whole pass splits
// nothing: from then on the model answers NoSplit for every probe.
func convergedSegmenter(t *testing.T, n int, mmin, mmax int64, probes []domain.Range) (*Segmenter, []domain.Value) {
	t.Helper()
	const dom = 1 << 20
	rng := rand.New(rand.NewSource(21))
	vals := make([]domain.Value, n)
	for i := range vals {
		vals[i] = rng.Int63n(dom)
	}
	s := NewSegmenter(domain.NewRange(0, dom-1), vals, 8, model.NewAPM(mmin, mmax), nil)
	s.SetCompression(compress.Auto)
	for pass := 0; pass < 20; pass++ {
		splits := 0
		for _, q := range probes {
			_, st := s.Count(q)
			splits += st.Splits
		}
		if splits == 0 {
			return s, vals
		}
	}
	t.Fatal("column did not converge on the probe ranges")
	return nil, nil
}

// wideProbes returns k ranges, each a fifth of [0, 2^20), at seeded
// uniform positions.
func wideProbes(k int) []domain.Range {
	const dom, width = 1 << 20, (1 << 20) / 5
	rng := rand.New(rand.NewSource(22))
	out := make([]domain.Range, k)
	for i := range out {
		lo := rng.Int63n(dom - width)
		out[i] = domain.NewRange(lo, lo+width-1)
	}
	return out
}

func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// scanProbes loops Count and SelectRope over probes on its own goroutine
// until the returned stop is called; stop waits for the goroutine and
// returns each query's duration and the splits the probes caused.
func scanProbes(s *Segmenter, probes []domain.Range) (stop func() ([]time.Duration, int)) {
	quit := make(chan struct{})
	done := make(chan struct{})
	var queries []time.Duration
	splits := 0
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-quit:
				return
			default:
			}
			q := probes[i%len(probes)]
			t0 := time.Now()
			var st QueryStats
			if i%2 == 0 {
				_, st = s.Count(q)
			} else {
				_, st = s.SelectRope(q)
			}
			queries = append(queries, time.Since(t0))
			splits += st.Splits
		}
	}()
	return func() ([]time.Duration, int) {
		close(quit)
		<-done
		return queries, splits
	}
}

// sampleLockWaits measures, samples times, how long the test goroutine
// waits for eng.Mu of the column cur returns, sleeping step × 5..11
// between samples.
func sampleLockWaits(cur func() *Segmenter, step time.Duration, samples int) []time.Duration {
	waits := make([]time.Duration, samples)
	for i := range waits {
		time.Sleep(step * time.Duration(5+i%7))
		s := cur()
		t0 := time.Now()
		s.eng.Mu.Lock()
		waits[i] = time.Since(t0)
		s.eng.Mu.Unlock()
	}
	return waits
}

// TestWriterLockHoldIndependentOfScan pins the read protocol: a query
// gives eng.Mu back before it reads a segment payload, so how long a
// writer waits for the lock does not grow with the scan — whether the
// plan splits or not. One goroutine loops queries; the test goroutine
// samples its own wait for eng.Mu. (A query that kept the lock through
// its scan would make the median wait a large fraction of the median
// query.)
func TestWriterLockHoldIndependentOfScan(t *testing.T) {
	check := func(t *testing.T, waits, queries []time.Duration) {
		t.Helper()
		if len(queries) < 20 {
			t.Fatalf("scanner finished only %d queries beside %d samples", len(queries), len(waits))
		}
		wait, query := median(waits), median(queries)
		t.Logf("median lock wait %v, median query %v over %d queries", wait, query, len(queries))
		if wait*10 >= query {
			t.Errorf("median wait for eng.Mu is %v, not below 10%% of the median query (%v): a query holds the writer lock while it scans", wait, query)
		}
	}

	// Wide Count and SelectRope over a converged column: no plan splits.
	t.Run("split-free", func(t *testing.T) {
		probes := wideProbes(8)
		s, _ := convergedSegmenter(t, 1<<20, 256<<10, 1<<20, probes)

		// Space the samples by about a fifth of a query, however fast
		// this host (or the race detector) runs one.
		t0 := time.Now()
		s.SelectRope(probes[0])
		step := time.Since(t0) / 40
		stop := scanProbes(s, probes)
		waits := sampleLockWaits(func() *Segmenter { return s }, step, 300)
		queries, scannerSplits := stop()
		if scannerSplits != 0 {
			t.Fatalf("probe queries split %d times on a converged column", scannerSplits)
		}
		check(t, waits, queries)
	})

	// Every query splits a fresh single-segment column of 2^19 values,
	// so each split scan partitions 4 MB; the sampler follows the column
	// in use.
	t.Run("splits", func(t *testing.T) {
		const dom = 1 << 19
		rng := rand.New(rand.NewSource(24))
		vals := make([]domain.Value, dom)
		for i := range vals {
			vals[i] = rng.Int63n(dom)
		}
		// Segments are immutable, so the fresh columns share vals.
		fresh := func() *Segmenter {
			return NewSegmenter(domain.NewRange(0, dom-1), vals, 8, model.NewAPM(64<<10, 256<<10), nil)
		}
		q := domain.NewRange(dom/2, dom/2+dom/100)
		t0 := time.Now()
		if _, st := fresh().Count(q); st.Splits != 1 {
			t.Fatalf("query on a fresh column split %d segments, want 1", st.Splits)
		}
		step := time.Since(t0) / 40

		var cur atomic.Pointer[Segmenter]
		cur.Store(fresh())
		quit, done := make(chan struct{}), make(chan struct{})
		var queries []time.Duration
		unsplit := 0
		go func() {
			defer close(done)
			for i := 0; ; i++ {
				select {
				case <-quit:
					return
				default:
				}
				s := fresh()
				cur.Store(s)
				t0 := time.Now()
				var st QueryStats
				if i%2 == 0 {
					_, st = s.Count(q)
				} else {
					_, st = s.SelectRope(q)
				}
				queries = append(queries, time.Since(t0))
				if st.Splits != 1 {
					unsplit++
				}
			}
		}()
		waits := sampleLockWaits(cur.Load, step, 300)
		close(quit)
		<-done
		if unsplit != 0 {
			t.Fatalf("%d of %d queries did not split their fresh column", unsplit, len(queries))
		}
		check(t, waits, queries)
	})
}

// TestWriterLockHoldSplitMatchesReplay is the other half: ranges whose
// plans do split, issued beside a scanner of split-free probes, produce
// the results, split counts and final layout of a single-goroutine
// replay — their scans run outside eng.Mu and their intents apply in
// plan order. With a writer inserting and merging beside them as well,
// their results stay exact and no write is lost.
func TestWriterLockHoldSplitMatchesReplay(t *testing.T) {
	probes := wideProbes(4)
	rng := rand.New(rand.NewSource(23))
	splitters := make([]domain.Range, 12)
	for i := range splitters {
		lo := rng.Int63n(1<<20 - 1<<16)
		splitters[i] = domain.NewRange(lo, lo+rng.Int63n(1<<16))
	}
	build := func() (*Segmenter, []domain.Value) {
		return convergedSegmenter(t, 1<<18, 16<<10, 64<<10, probes)
	}

	// Single-goroutine replay. The probes stay split-free after every
	// splitter, so on the concurrent column their interleaving cannot
	// change the layout either.
	ref, vals := build()
	wantSplits := make([]int, len(splitters))
	total := 0
	for i, q := range splitters {
		res, st := ref.Select(q)
		equalMultiset(t, res, refSelect(vals, q))
		wantSplits[i] = st.Splits
		total += st.Splits
		for _, p := range probes {
			if _, pst := ref.Count(p); pst.Splits != 0 {
				t.Fatalf("probe %v split after splitter %d", p, i)
			}
		}
	}
	if total == 0 {
		t.Fatal("no splitter range split: the case tests nothing")
	}

	s, _ := build()
	stop := scanProbes(s, probes)
	for i, q := range splitters {
		res, st := s.Select(q)
		equalMultiset(t, res, refSelect(vals, q))
		if st.Splits != wantSplits[i] {
			t.Errorf("splitter %d: %d splits beside a scanner, %d in the replay", i, st.Splits, wantSplits[i])
		}
	}
	if _, scannerSplits := stop(); scannerSplits != 0 {
		t.Errorf("probe queries split %d times", scannerSplits)
	}
	if got, want := s.Layout(), ref.Layout(); got != want {
		t.Errorf("layout beside a scanner differs from the single-goroutine replay:\n got %s\nwant %s", got, want)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	// The same splitters beside the scanner and a writer that inserts
	// values outside every splitter and merges them back: each splitter
	// still answers exactly its replay's rows, and the final content is
	// the initial values plus every insert.
	w, _ := build()
	stopScan := scanProbes(w, probes)
	quit, done := make(chan struct{}), make(chan struct{})
	var inserted []domain.Value
	var writeErr error
	go func() {
		defer close(done)
		wr := rand.New(rand.NewSource(25))
		for i := 1; writeErr == nil; i++ {
			if i > 256 { // write a little however soon the splitters finish
				select {
				case <-quit:
					return
				default:
				}
			}
			v := wr.Int63n(1 << 20)
			if slices.ContainsFunc(splitters, func(q domain.Range) bool { return q.Contains(v) }) {
				continue
			}
			if _, writeErr = w.Insert(v); writeErr == nil {
				inserted = append(inserted, v)
			}
			if i%64 == 0 {
				_, writeErr = w.MergeDeltas()
			}
		}
	}()
	for _, q := range splitters {
		res, _ := w.Select(q)
		equalMultiset(t, res, refSelect(vals, q))
	}
	close(quit)
	<-done
	stopScan()
	if writeErr != nil {
		t.Fatal(writeErr)
	}
	if len(inserted) == 0 {
		t.Fatal("the writer inserted nothing beside the splitters")
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	all, _ := w.Select(domain.NewRange(0, 1<<20-1))
	equalMultiset(t, all, append(slices.Clone(vals), inserted...))
}

// TestWriterLockWaitIsRecordedApartFromRoute: a query queued behind the
// writer lock reports the wait in selforg_writer_lock_wait_ns and in the
// trace's LockWaitNs; RouteNs is clocked from the acquisition on and
// does not contain it.
func TestWriterLockWaitIsRecordedApartFromRoute(t *testing.T) {
	s := NewSegmenter(domain.NewRange(0, 999), denseColumn(1000), 1, model.Never{}, nil)
	ob := obs.NewObserver()
	ob.Traces.Enable(1, 0)
	s.SetObserver(ob, 0)
	const held = 5 * time.Millisecond
	// The query goroutine may be scheduled late and miss the held lock;
	// repeat until one query has demonstrably queued.
	for attempt := 0; attempt < 50; attempt++ {
		s.eng.Mu.Lock()
		started := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			close(started)
			s.Count(domain.NewRange(100, 200))
		}()
		<-started
		time.Sleep(held)
		s.eng.Mu.Unlock()
		<-done
		traces := ob.Traces.Recent()
		tr := traces[len(traces)-1]
		if tr.LockWaitNs == 0 {
			continue
		}
		if tr.RouteNs >= tr.LockWaitNs {
			t.Errorf("route %dns not below the lock wait %dns: the route clock includes the wait", tr.RouteNs, tr.LockWaitNs)
		}
		if sum := s.ob.Load().lockWait.Sum(); sum < tr.LockWaitNs {
			t.Errorf("selforg_writer_lock_wait_ns sums to %dns, the traced wait alone is %dns", sum, tr.LockWaitNs)
		}
		if n := s.ob.Load().lockWait.Count(); n != int64(attempt+1) {
			t.Errorf("lock-wait histogram holds %d observations after %d queries", n, attempt+1)
		}
		return
	}
	t.Fatal("no query ever waited for the held writer lock")
}

// TestFanOut: every index runs exactly once, with at most min(par, n)
// calls in flight at any time. Run it under -race: the per-index slots
// are written from the workers without a lock.
func TestFanOut(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, par := range []int{1, 2, 16} {
			runs := make([]atomic.Int32, n)
			var active, peak atomic.Int32
			FanOut(n, par, func(i int) {
				a := active.Add(1)
				for p := peak.Load(); a > p && !peak.CompareAndSwap(p, a); p = peak.Load() {
				}
				runs[i].Add(1)
				active.Add(-1)
			})
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("n=%d par=%d: index %d ran %d times", n, par, i, got)
				}
			}
			if p := int(peak.Load()); p > min(par, n) {
				t.Fatalf("n=%d par=%d: %d calls in flight at once", n, par, p)
			}
		}
	}
}
