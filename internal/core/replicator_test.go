package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"selforg/internal/domain"
	"selforg/internal/model"
	"selforg/internal/obs"
)

// figure4Setup mirrors figure3Setup for the replication walkthrough:
// dense 1000-value column over [0, 999], 1 byte/value, APM 100/350.
func figure4Setup(tr Tracer) *Replicator {
	return NewReplicator(domain.NewRange(0, 999), denseColumn(1000), 1, model.NewAPM(100, 350), tr)
}

func TestReplicatorFigure4Walkthrough(t *testing.T) {
	r := figure4Setup(nil)
	if r.StorageBytes() != 1000 {
		t.Fatalf("initial storage = %v", r.StorageBytes())
	}

	// Q1 [300,599]: the result is kept as a replica segment; two virtual
	// segments complement it to cover the domain (Figure 4, state after
	// Q1).
	res, st := r.Select(domain.NewRange(300, 599))
	if len(res) != 300 {
		t.Errorf("Q1 result = %d", len(res))
	}
	if st.ReadBytes != 1000 {
		t.Errorf("Q1 reads = %d, want full column", st.ReadBytes)
	}
	if st.WriteBytes != 300 {
		t.Errorf("Q1 writes = %d, want only the selection (300)", st.WriteBytes)
	}
	if r.StorageBytes() != 1300 {
		t.Errorf("storage after Q1 = %v, want 1300", r.StorageBytes())
	}
	if r.SegmentCount() != 2 || r.VirtualCount() != 2 {
		t.Errorf("after Q1: %d mat / %d vir, want 2/2", r.SegmentCount(), r.VirtualCount())
	}

	// Q2 [100,349] overlaps the virtual segment [0,299] and must scan the
	// entire column again ("both queries Q2 and Q3 overlap with virtual
	// segments and need to scan the entire column in contrast with
	// adaptive segmentation", §5). The overlap piece [100,299] of the
	// virtual leaf is materialized; the [300,349] piece of the
	// materialized replica is too small to replicate (rule 3, SizeS=300
	// <= Mmax).
	res, st = r.Select(domain.NewRange(100, 349))
	if len(res) != 250 {
		t.Errorf("Q2 result = %d", len(res))
	}
	if st.ReadBytes != 1000 {
		t.Errorf("Q2 reads = %d, want full column scan", st.ReadBytes)
	}
	if st.WriteBytes != 200 {
		t.Errorf("Q2 writes = %d, want 200 ([100,299])", st.WriteBytes)
	}

	// Q3 [600,619] hits the virtual tail [600,999] (estimated 400 bytes >
	// Mmax): case 4 splits at the mean (799) and materializes the low
	// half, a super-set of the selection.
	res, st = r.Select(domain.NewRange(600, 619))
	if len(res) != 20 {
		t.Errorf("Q3 result = %d", len(res))
	}
	if st.ReadBytes != 1000 {
		t.Errorf("Q3 reads = %d, want full column scan", st.ReadBytes)
	}
	if st.WriteBytes != 200 {
		t.Errorf("Q3 writes = %d, want 200 ([600,799])", st.WriteBytes)
	}
	if r.StorageBytes() != 1700 {
		t.Errorf("storage after Q3 = %v, want 1700", r.StorageBytes())
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Dump(), "vir") {
		t.Error("dump should show virtual segments")
	}
}

func TestReplicatorRootDropReleasesStorage(t *testing.T) {
	// Cover the whole domain in two halves with the Always model: after
	// the second query the root's children are both materialized, the
	// root is dropped and its 1000 bytes released (§6.1.3: "the initial
	// segment containing the entire column was fully replicated by its
	// materialized children and dropped").
	r := NewReplicator(domain.NewRange(0, 999), denseColumn(1000), 1, model.Always{}, nil)
	_, st := r.Select(domain.NewRange(0, 499))
	if st.Drops != 0 {
		t.Fatalf("premature drop")
	}
	if r.StorageBytes() != 1500 {
		t.Fatalf("storage after half replica = %v", r.StorageBytes())
	}
	_, st = r.Select(domain.NewRange(500, 999))
	if st.Drops != 1 {
		t.Errorf("drops = %d, want 1 (the root)", st.Drops)
	}
	if r.StorageBytes() != 1000 {
		t.Errorf("storage after root drop = %v, want 1000", r.StorageBytes())
	}
	if r.Depth() != 1 {
		t.Errorf("tree depth = %d, want flat forest", r.Depth())
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// The structure now matches the flat list adaptive segmentation
	// would produce ("the replica tree transforms into a structure very
	// close to the segment list", §6.1.3).
	if r.SegmentCount() != 2 || r.VirtualCount() != 0 {
		t.Errorf("mat/vir = %d/%d, want 2/0", r.SegmentCount(), r.VirtualCount())
	}
}

func TestReplicatorGDVirtualMaterializedAtOnce(t *testing.T) {
	// §6.1.3: "if the segment S is virtual, the GD decision to not split
	// it causes its materialization at once, thus allowing its parent P to
	// be dropped". Force the GD no-split path with a point query on a
	// tiny virtual segment.
	r := NewReplicator(domain.NewRange(0, 9999), denseColumn(10_000), 1, model.NewGaussianDice(5), nil)
	// First materialize [0,8999] to leave a small virtual tail (x = 0.9
	// with sigma = 1 still splits with high probability; retry seeds are
	// not needed as Odds(0.9, 1) = 0.92).
	for i := 0; i < 20; i++ {
		_, st := r.Select(domain.NewRange(0, 8999))
		if st.Splits > 0 {
			break
		}
	}
	// Point query on the virtual tail: x ~ tiny → never splits → the tail
	// is materialized whole and the root dropped.
	_, _ = r.Select(domain.NewRange(9500, 9500))
	if r.VirtualCount() != 0 {
		t.Errorf("virtual segments remain: %d\n%s", r.VirtualCount(), r.Dump())
	}
	if r.StorageBytes() != 10_000 {
		t.Errorf("storage = %v, want column size after root drop", r.StorageBytes())
	}
}

func TestReplicatorResultCorrectAcrossModels(t *testing.T) {
	vals := denseColumn(1000)
	models := []model.Model{
		model.Never{},
		model.Always{},
		model.NewAPM(50, 200),
		model.NewGaussianDice(11),
	}
	queries := []domain.Range{
		domain.NewRange(0, 999),
		domain.NewRange(0, 10),
		domain.NewRange(990, 999),
		domain.NewRange(123, 456),
		domain.NewRange(500, 500),
	}
	for _, m := range models {
		r := NewReplicator(domain.NewRange(0, 999), vals, 4, m, nil)
		for _, q := range queries {
			res, st := r.Select(q)
			equalMultiset(t, res, refSelect(vals, q))
			if st.ResultCount != int64(len(res)) {
				t.Errorf("%s: ResultCount = %d, want %d", m.Name(), st.ResultCount, len(res))
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("%s after %v: %v", m.Name(), q, err)
			}
		}
	}
}

func TestReplicatorPropertyRandomWorkload(t *testing.T) {
	// Property: random workloads keep results exact, the tree valid, and
	// the storage counter equal to the recomputed materialized total.
	rng := rand.New(rand.NewSource(99))
	vals := make([]domain.Value, 3000)
	for i := range vals {
		vals[i] = rng.Int63n(10_000)
	}
	for _, m := range []model.Model{model.NewAPM(30, 120), model.NewGaussianDice(13), model.Always{}} {
		r := NewReplicator(domain.NewRange(0, 9999), vals, 1, m, nil)
		for i := 0; i < 150; i++ {
			a, b := rng.Int63n(10_000), rng.Int63n(10_000)
			if a > b {
				a, b = b, a
			}
			q := domain.Range{Lo: a, Hi: b}
			res, _ := r.Select(q)
			equalMultiset(t, res, refSelect(vals, q))
			if err := r.Validate(); err != nil {
				t.Fatalf("%s query %d: %v", m.Name(), i, err)
			}
			var sum int64
			for _, b := range r.SegmentSizes() {
				sum += int64(b)
			}
			if sum != int64(r.StorageBytes()) {
				t.Fatalf("%s query %d: storage counter %v != recomputed %d",
					m.Name(), i, r.StorageBytes(), sum)
			}
		}
	}
}

func TestReplicatorWritesLessThanSegmenter(t *testing.T) {
	// The headline of §6.1.1: "For all combinations of selectivity and
	// distribution, adaptive replication requires less writes than its
	// counterpart segmentation."
	rng := rand.New(rand.NewSource(31))
	vals := denseColumn(50_000)
	mkQueries := func() []domain.Range {
		qs := make([]domain.Range, 400)
		r2 := rand.New(rand.NewSource(17))
		for i := range qs {
			lo := r2.Int63n(45_000)
			qs[i] = domain.Range{Lo: lo, Hi: lo + 4999}
		}
		return qs
	}
	_ = rng
	seg := NewSegmenter(domain.NewRange(0, 49_999), vals, 4, model.NewAPM(3*1024, 12*1024), nil)
	rep := NewReplicator(domain.NewRange(0, 49_999), vals, 4, model.NewAPM(3*1024, 12*1024), nil)
	var segWrites, repWrites int64
	for _, q := range mkQueries() {
		_, st := seg.Select(q)
		segWrites += st.WriteBytes
	}
	for _, q := range mkQueries() {
		_, st := rep.Select(q)
		repWrites += st.WriteBytes
	}
	if repWrites >= segWrites {
		t.Errorf("replication writes %d >= segmentation writes %d", repWrites, segWrites)
	}
	// §6.1.1 reports a stable reduction around 2.5x for APM; allow a
	// generous band for the scaled-down setting.
	ratio := float64(segWrites) / float64(repWrites)
	if ratio < 1.5 || ratio > 6 {
		t.Errorf("write ratio = %.2f, want within [1.5, 6]", ratio)
	}
}

func TestReplicatorTracerConservation(t *testing.T) {
	tr := &countTracer{}
	vals := denseColumn(2000)
	r := NewReplicator(domain.NewRange(0, 1999), vals, 1, model.Always{}, tr)
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 80; i++ {
		a, b := rng.Int63n(2000), rng.Int63n(2000)
		if a > b {
			a, b = b, a
		}
		r.Select(domain.Range{Lo: a, Hi: b})
	}
	if tr.liveBytes != int64(r.StorageBytes()) {
		t.Errorf("tracer live bytes %d != storage %v", tr.liveBytes, r.StorageBytes())
	}
}

func TestReplicatorEmptyQueryOutsideExtent(t *testing.T) {
	r := figure4Setup(nil)
	res, st := r.Select(domain.NewRange(5000, 6000))
	if len(res) != 0 || st.ReadBytes != 0 {
		t.Errorf("query outside extent: %d results, %d reads", len(res), st.ReadBytes)
	}
}

func TestReplicatorName(t *testing.T) {
	r := figure4Setup(nil)
	if r.Name() != "APM 100B-350B Repl" {
		t.Errorf("Name = %q", r.Name())
	}
}

func TestReplicatorDepthGrowsThenFlattens(t *testing.T) {
	// Nested inside-queries grow the tree depth; covering the domain with
	// the Always model eventually flattens it back towards a forest.
	r := NewReplicator(domain.NewRange(0, 9999), denseColumn(10_000), 1, model.Always{}, nil)
	r.Select(domain.NewRange(1000, 8999))
	r.Select(domain.NewRange(2000, 7999))
	if r.Depth() < 2 {
		t.Fatalf("depth = %d, want nesting", r.Depth())
	}
	// Sweep the domain so every virtual piece is materialized.
	for lo := int64(0); lo < 10_000; lo += 500 {
		r.Select(domain.Range{Lo: lo, Hi: lo + 499})
	}
	if r.VirtualCount() != 0 {
		t.Errorf("virtual segments remain after sweep: %d", r.VirtualCount())
	}
	if r.Depth() != 1 {
		t.Errorf("depth after sweep = %d, want 1\n%s", r.Depth(), r.Dump())
	}
	res, _ := r.Select(domain.NewRange(0, 9999))
	equalMultiset(t, res, denseColumn(10_000))
}

func TestReplicatorSelectStatsAccumulate(t *testing.T) {
	var acc QueryStats
	r := figure4Setup(nil)
	for _, q := range []domain.Range{{Lo: 0, Hi: 499}, {Lo: 500, Hi: 999}} {
		_, st := r.Select(q)
		acc.Add(st)
	}
	if acc.ReadBytes == 0 || acc.ResultCount != 1000 {
		t.Errorf("accumulated stats wrong: %+v", acc)
	}
}

// TestReplicatorQueryAppliesOwnAdaptation: a Replication query whose
// cover needs adaptation applies it itself before it returns. While the
// test holds the writer lock the query cannot return; once released,
// its Stats carry the split and the materialized bytes — exactly the
// Materialize bytes its own Tracer stream shows — the replica is in the
// layout, and the wait is in selforg_writer_lock_wait_ns.
func TestReplicatorQueryAppliesOwnAdaptation(t *testing.T) {
	q := domain.NewRange(100, 200)
	// The query goroutine may be scheduled late and reach the lock only
	// after the test released it; repeat until one query has
	// demonstrably queued.
	for attempt := 0; attempt < 50; attempt++ {
		tr := &recTracer{}
		r := NewReplicator(domain.NewRange(0, 999), denseColumn(1000), 1, model.Always{}, tr)
		r.SetObserver(obs.NewObserver(), 0)
		built := len(tr.events)

		r.eng.Mu.Lock()
		var res []domain.Value
		var st QueryStats
		done := make(chan struct{})
		go func() {
			defer close(done)
			res, st = r.Select(q)
		}()
		select {
		case <-done:
			r.eng.Mu.Unlock()
			t.Fatal("Select returned while the writer lock was held: it did not apply its own adaptation")
		case <-time.After(5 * time.Millisecond):
		}
		r.eng.Mu.Unlock()
		<-done

		if len(res) != 101 {
			t.Fatalf("Select returned %d rows, want 101", len(res))
		}
		if st.Splits < 1 || st.WriteBytes <= 0 {
			t.Fatalf("query stats %+v carry no adaptation", st)
		}
		var materialized int64
		for _, e := range tr.events[built:] {
			if e.kind == 'M' {
				materialized += e.bytes
			}
		}
		if st.WriteBytes != materialized {
			t.Errorf("WriteBytes = %d, the query's Materialize events sum to %d", st.WriteBytes, materialized)
		}
		replica := false
		r.eng.Base().walk(func(n *node, _ int) {
			replica = replica || (!n.seg.Virtual && n.seg.Rng == q)
		})
		if !replica {
			t.Errorf("no materialized replica of %v in the layout:\n%s", q, r.Dump())
		}
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		if r.ob.Load().lockWait.Sum() > 0 {
			return
		}
	}
	t.Fatal(`no query ever recorded a wait in selforg_writer_lock_wait_ns{strategy="repl"}`)
}
