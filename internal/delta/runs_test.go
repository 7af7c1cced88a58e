package delta

import (
	"math/rand"
	"sort"
	"testing"

	"selforg/internal/domain"
)

func sortVals(v []domain.Value) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}

// TestApplyBatchSingleVersionAndPublication pins the group-commit
// contract: one batch = one version bump = one snapshot publication,
// with per-op results matching the single-op rules.
func TestApplyBatchSingleVersionAndPublication(t *testing.T) {
	d := NewStore(4)
	base := func(v domain.Value) int64 {
		if v == 100 {
			return 1
		}
		return 0
	}
	before := d.Stats()
	res := make([]bool, 5)
	d.Apply(0, []Op{
		{Kind: OpInsert, V: 1},
		{Kind: OpInsert, V: 2},
		{Kind: OpDelete, V: 100},       // hits the base
		{Kind: OpDelete, V: 999},       // no visible row — refused
		{Kind: OpUpdate, V: 1, New: 7}, // replaces the batch's own insert
	}, res, base)
	want := []bool{true, true, true, false, true}
	for i, ok := range res {
		if ok != want[i] {
			t.Fatalf("op %d: got %v want %v (all %v)", i, ok, want[i], res)
		}
	}
	after := d.Stats()
	if after.Watermark != before.Watermark+1 {
		t.Fatalf("batch bumped version by %d, want 1", after.Watermark-before.Watermark)
	}
	if after.Publications != before.Publications+1 {
		t.Fatalf("batch published %d snapshots, want 1", after.Publications-before.Publications)
	}
	// Visible content: inserts 2 and 7 (1 was replaced within the batch),
	// one tombstone against base value 100.
	s := d.Snapshot()
	got := s.Overlay(domain.Range{Lo: 0, Hi: 1000}, []domain.Value{100})
	sortVals(got)
	if len(got) != 2 || got[0] != 2 || got[1] != 7 {
		t.Fatalf("overlay after batch = %v, want [2 7]", got)
	}
	if n, sum := s.CountDelta(domain.Range{Lo: 0, Hi: 1000}); n != 1 || sum != 2+7-100 {
		t.Fatalf("count delta = (%d, %d), want (1, %d) (2 inserts - 1 tombstone)", n, sum, 2+7-100)
	}
}

// TestApplyBatchAtomicVisibility: a snapshot pinned before the batch
// sees none of it; one pinned after sees all of it. A value inserted
// and deleted inside the same batch is visible at no watermark.
func TestApplyBatchAtomicVisibility(t *testing.T) {
	d := NewStore(4)
	none := func(domain.Value) int64 { return 0 }
	pre := d.Snapshot()
	d.Apply(0, []Op{
		{Kind: OpInsert, V: 5},
		{Kind: OpInsert, V: 6},
		{Kind: OpDelete, V: 5}, // cancels the batch's own insert
	}, make([]bool, 3), none)
	post := d.Snapshot()
	q := domain.Range{Lo: 0, Hi: 10}
	if got := pre.Overlay(q, nil); len(got) != 0 {
		t.Fatalf("pre-batch snapshot sees %v", got)
	}
	got := post.Overlay(q, nil)
	if len(got) != 1 || got[0] != 6 {
		t.Fatalf("post-batch snapshot sees %v, want [6]", got)
	}
}

// TestSortedRunsEquivalence drives a large random single-op workload —
// enough to seal many runs and trigger compaction — and checks
// Overlay/CountDelta against a brute-force model on random ranges.
func TestSortedRunsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewStore(4)
	model := map[domain.Value]int{} // live pending multiset
	baseCount := func(domain.Value) int64 { return 0 }
	for i := 0; i < 2000; i++ {
		v := domain.Value(rng.Intn(500))
		switch rng.Intn(3) {
		case 0, 1:
			insertOne(d, v)
			model[v]++
		case 2:
			ok := deleteOne(d, v, baseCount)
			if ok != (model[v] > 0) {
				t.Fatalf("step %d: delete(%d) = %v, model count %d", i, v, ok, model[v])
			}
			if ok {
				model[v]--
			}
		}
	}
	if st := d.Stats(); st.Runs < 1 || st.Runs > maxRuns {
		t.Fatalf("run count %d out of [1,%d]", st.Runs, maxRuns)
	}
	s := d.Snapshot()
	for trial := 0; trial < 50; trial++ {
		lo := domain.Value(rng.Intn(500))
		hi := lo + domain.Value(rng.Intn(100))
		q := domain.Range{Lo: lo, Hi: hi}
		var want []domain.Value
		for v, n := range model {
			if q.Contains(v) {
				for k := 0; k < n; k++ {
					want = append(want, v)
				}
			}
		}
		got := s.Overlay(q, nil)
		sortVals(got)
		sortVals(want)
		if len(got) != len(want) {
			t.Fatalf("q=[%d,%d]: overlay %d vals, want %d", lo, hi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("q=[%d,%d]: overlay[%d]=%d want %d", lo, hi, i, got[i], want[i])
			}
		}
		var wantSum int64
		for _, v := range want {
			wantSum += v
		}
		if n, sum := s.CountDelta(q); n != int64(len(want)) || sum != wantSum {
			t.Fatalf("q=[%d,%d]: count delta (%d, %d), want (%d, %d)", lo, hi, n, sum, len(want), wantSum)
		}
	}
}

// TestOverlayBytesWindowed: a narrow query charges only the run windows
// it touched plus the tail, not the whole pending set.
func TestOverlayBytesWindowed(t *testing.T) {
	d := NewStore(4)
	// 2*tailSealLen entries spread over a wide domain → 2 sealed runs,
	// empty tail.
	for i := 0; i < 2*tailSealLen; i++ {
		insertOne(d, domain.Value(i*100))
	}
	s := d.Snapshot()
	full := s.Bytes()
	narrow := s.OverlayBytes(domain.Range{Lo: 0, Hi: 99}) // one value per run window at most
	if narrow >= full/4 {
		t.Fatalf("narrow overlay charged %d bytes of %d total — windows not applied", narrow, full)
	}
	wide := s.OverlayBytes(domain.Range{Lo: 0, Hi: 1 << 30})
	if wide != full {
		t.Fatalf("full-range overlay charged %d bytes, want %d", wide, full)
	}
}

// TestMergeDrainsInWriteOrder: entries must drain by creation order even
// though runs reorder them by value.
func TestMergeDrainsInWriteOrder(t *testing.T) {
	d := NewStore(4)
	// Descending inserts so value order ≠ write order once sealed.
	for i := tailSealLen; i > 0; i-- {
		insertOne(d, domain.Value(i))
	}
	var got []domain.Value
	if _, err := d.Merge(func(ins, del []domain.Value, commit func()) error {
		got = append(got, ins...)
		commit()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if want := domain.Value(tailSealLen - i); v != want {
			t.Fatalf("drain[%d] = %d, want %d (write order)", i, v, want)
		}
	}
	if st := d.Stats(); st.Pending != 0 || st.Runs != 0 {
		t.Fatalf("post-merge pending=%d runs=%d", st.Pending, st.Runs)
	}
}
