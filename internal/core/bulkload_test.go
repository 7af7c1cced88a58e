package core

import (
	"math/rand"
	"testing"

	"selforg/internal/domain"
	"selforg/internal/model"
	"selforg/internal/obs"
)

func TestSegmenterBulkLoad(t *testing.T) {
	vals := denseColumn(1000)
	s := NewSegmenter(domain.NewRange(0, 999), vals, 1, model.NewAPM(100, 350), nil)
	s.Select(domain.NewRange(300, 599)) // fragment first
	if s.SegmentCount() < 2 {
		t.Fatal("setup: no fragmentation")
	}
	extra := []domain.Value{5, 310, 310, 900}
	st, err := s.BulkLoad(extra)
	if err != nil {
		t.Fatal(err)
	}
	if st.WriteBytes == 0 {
		t.Error("bulk load accounted no writes")
	}
	if err := s.List().Validate(); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Select(domain.NewRange(0, 999))
	equalMultiset(t, res, append(append([]domain.Value{}, denseColumn(1000)...), extra...))
	if s.StorageBytes() != 1004 {
		t.Errorf("storage = %v, want 1004", s.StorageBytes())
	}
}

func TestSegmenterBulkLoadRejectsOutOfExtent(t *testing.T) {
	s := NewSegmenter(domain.NewRange(0, 99), denseColumn(100), 1, model.Never{}, nil)
	if _, err := s.BulkLoad([]domain.Value{500}); err == nil {
		t.Error("out-of-extent value accepted")
	}
	// Nothing must have been mutated.
	if s.StorageBytes() != 100 {
		t.Errorf("partial mutation: %v", s.StorageBytes())
	}
}

func TestSegmenterBulkLoadEmpty(t *testing.T) {
	s := NewSegmenter(domain.NewRange(0, 99), denseColumn(100), 1, model.Never{}, nil)
	st, err := s.BulkLoad(nil)
	if err != nil || st.WriteBytes != 0 {
		t.Errorf("empty load: %+v, %v", st, err)
	}
}

func TestReplicatorBulkLoadUpdatesAllCopies(t *testing.T) {
	vals := denseColumn(1000)
	r := NewReplicator(domain.NewRange(0, 999), vals, 1, model.NewAPM(100, 350), nil)
	r.Select(domain.NewRange(300, 599)) // creates a materialized replica of [300,599]
	if r.SegmentCount() < 2 {
		t.Fatal("setup: no replica")
	}
	before := int64(r.StorageBytes())
	// 310 lands in both the root copy and the replica: two copies, 2 bytes.
	st, err := r.BulkLoad([]domain.Value{310})
	if err != nil {
		t.Fatal(err)
	}
	if int64(r.StorageBytes())-before != 2 {
		t.Errorf("storage grew by %d, want 2 (two copies)", int64(r.StorageBytes())-before)
	}
	if st.WriteBytes == 0 {
		t.Error("no writes accounted")
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// The value must appear exactly once in query results (cover picks
	// one copy per range).
	res, _ := r.Select(domain.NewRange(310, 310))
	if len(res) != 2 { // original 310 + loaded 310
		t.Errorf("got %d copies of 310 in result, want 2", len(res))
	}
}

func TestReplicatorBulkLoadVirtualEstimates(t *testing.T) {
	vals := denseColumn(1000)
	r := NewReplicator(domain.NewRange(0, 999), vals, 1, model.NewAPM(100, 350), nil)
	r.Select(domain.NewRange(300, 599))
	if r.VirtualCount() == 0 {
		t.Fatal("setup: no virtual segments")
	}
	// Load into a virtual region: only the root copy is materialized, so
	// storage grows by 1, and the virtual estimate is bumped.
	before := int64(r.StorageBytes())
	if _, err := r.BulkLoad([]domain.Value{50}); err != nil {
		t.Fatal(err)
	}
	if int64(r.StorageBytes())-before != 1 {
		t.Errorf("storage grew by %d, want 1", int64(r.StorageBytes())-before)
	}
	res, _ := r.Select(domain.NewRange(0, 999))
	if len(res) != 1001 {
		t.Errorf("result = %d rows, want 1001", len(res))
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicatorBulkLoadRejectsOutOfExtent(t *testing.T) {
	r := NewReplicator(domain.NewRange(0, 99), denseColumn(100), 1, model.Never{}, nil)
	if _, err := r.BulkLoad([]domain.Value{-1}); err == nil {
		t.Error("out-of-extent value accepted")
	}
}

func TestBulkLoadThenAdaptProperty(t *testing.T) {
	// Property: interleaved loads and queries keep both strategies exact
	// and structurally valid.
	rng := rand.New(rand.NewSource(17))
	dom := domain.NewRange(0, 9999)
	initial := make([]domain.Value, 2000)
	for i := range initial {
		initial[i] = rng.Int63n(10_000)
	}
	reference := append([]domain.Value(nil), initial...)

	seg := NewSegmenter(dom, append([]domain.Value(nil), initial...), 1, model.NewAPM(64, 256), nil)
	rep := NewReplicator(dom, append([]domain.Value(nil), initial...), 1, model.NewAPM(64, 256), nil)

	for step := 0; step < 40; step++ {
		if step%5 == 4 {
			batch := make([]domain.Value, 50)
			for i := range batch {
				batch[i] = rng.Int63n(10_000)
			}
			reference = append(reference, batch...)
			if _, err := seg.BulkLoad(batch); err != nil {
				t.Fatal(err)
			}
			if _, err := rep.BulkLoad(batch); err != nil {
				t.Fatal(err)
			}
			continue
		}
		a := rng.Int63n(9000)
		q := domain.Range{Lo: a, Hi: a + rng.Int63n(1000)}
		want := refSelect(reference, q)
		got1, _ := seg.Select(q)
		got2, _ := rep.Select(q)
		equalMultiset(t, got1, want)
		equalMultiset(t, got2, want)
		if err := seg.List().Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := rep.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestBulkLoadEvent: both strategies file one bulkload adaptation event
// spanning the smallest and largest loaded value.
func TestBulkLoadEvent(t *testing.T) {
	for _, strat := range []interface {
		DeltaStrategy
		SetObserver(*obs.Observer, int)
	}{
		NewSegmenter(domain.NewRange(0, 999), denseColumn(1000), 1, model.Never{}, nil),
		NewReplicator(domain.NewRange(0, 999), denseColumn(1000), 1, model.Never{}, nil),
	} {
		ob := obs.NewObserver()
		strat.SetObserver(ob, 0)
		st, err := strat.BulkLoad([]domain.Value{600, 500})
		if err != nil {
			t.Fatal(err)
		}
		evs := ob.Events.Recent()
		if len(evs) != 1 {
			t.Fatalf("%s: %d events, want 1: %+v", strat.Name(), len(evs), evs)
		}
		e := evs[0]
		if e.Kind != "bulkload" || e.Lo != 500 || e.Hi != 600 || e.Bytes != st.WriteBytes || e.Note != "values=2" {
			t.Errorf("%s: event %+v, want bulkload [500, 600] bytes=%d values=2", strat.Name(), e, st.WriteBytes)
		}
	}
}

func TestBulkLoadTracerConsistency(t *testing.T) {
	tr := &countTracer{}
	s := NewSegmenter(domain.NewRange(0, 999), denseColumn(1000), 1, model.Always{}, tr)
	s.Select(domain.NewRange(200, 499))
	if _, err := s.BulkLoad([]domain.Value{250, 600}); err != nil {
		t.Fatal(err)
	}
	if tr.liveBytes != int64(s.StorageBytes()) {
		t.Errorf("tracer live %d != storage %v", tr.liveBytes, s.StorageBytes())
	}
	rt := &countTracer{}
	r := NewReplicator(domain.NewRange(0, 999), denseColumn(1000), 1, model.Always{}, rt)
	r.Select(domain.NewRange(200, 499))
	if _, err := r.BulkLoad([]domain.Value{250, 600}); err != nil {
		t.Fatal(err)
	}
	if rt.liveBytes != int64(r.StorageBytes()) {
		t.Errorf("replicator tracer live %d != storage %v", rt.liveBytes, r.StorageBytes())
	}
}
