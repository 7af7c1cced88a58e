package core

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"selforg/internal/compress"
	"selforg/internal/domain"
	"selforg/internal/model"
)

func sortedVals(vs []domain.Value) []domain.Value {
	out := append([]domain.Value(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func valsEq(a, b []domain.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// deltaStrategies builds one Segmenter and one Replicator over the same
// data, both with manual merging (policy 0/0) so tests control the
// checkpoint explicitly.
func deltaStrategies(vals []domain.Value, extent domain.Range) []DeltaStrategy {
	a := append([]domain.Value(nil), vals...)
	b := append([]domain.Value(nil), vals...)
	return []DeltaStrategy{
		NewSegmenter(extent, a, 4, model.NewAPM(32, 128), nil),
		NewReplicator(extent, b, 4, model.NewAPM(32, 128), nil),
	}
}

func TestDeltaWriteOverlayBothStrategies(t *testing.T) {
	extent := domain.NewRange(0, 999)
	base := []domain.Value{10, 20, 20, 300, 500, 900}
	for _, s := range deltaStrategies(base, extent) {
		t.Run(s.Name(), func(t *testing.T) {
			if _, err := s.Insert(42); err != nil {
				t.Fatal(err)
			}
			if ok, _, _ := s.Delete(20); !ok {
				t.Fatal("delete of base row refused")
			}
			if ok, _, _ := s.Update(300, 301); !ok {
				t.Fatal("update of base row refused")
			}
			if ok, _, _ := s.Delete(777); ok {
				t.Fatal("delete of absent value accepted")
			}
			got, _ := s.Select(extent)
			want := []domain.Value{10, 20, 42, 301, 500, 900}
			if !valsEq(sortedVals(got), sortedVals(want)) {
				t.Fatalf("overlay select = %v, want %v", sortedVals(got), sortedVals(want))
			}
			n, _ := s.Count(extent)
			if n != int64(len(want)) {
				t.Fatalf("overlay count = %d, want %d", n, len(want))
			}
			// Range-restricted overlay: only the insert qualifies.
			got, _ = s.Select(domain.NewRange(40, 45))
			if !valsEq(got, []domain.Value{42}) {
				t.Fatalf("range overlay = %v, want [42]", got)
			}
			if _, err := s.Insert(5000); err == nil {
				t.Fatal("insert outside extent accepted")
			}
		})
	}
}

func TestDeltaMergeBackEquivalence(t *testing.T) {
	extent := domain.NewRange(0, 999)
	rnd := rand.New(rand.NewSource(7))
	base := make([]domain.Value, 400)
	for i := range base {
		base[i] = rnd.Int63n(1000)
	}
	for _, s := range deltaStrategies(base, extent) {
		t.Run(s.Name(), func(t *testing.T) {
			for i := 0; i < 50; i++ {
				switch rnd.Intn(3) {
				case 0:
					s.Insert(rnd.Int63n(1000))
				case 1:
					s.Delete(base[rnd.Intn(len(base))])
				default:
					s.Update(base[rnd.Intn(len(base))], rnd.Int63n(1000))
				}
			}
			before, _ := s.Select(extent)
			st, err := s.MergeDeltas()
			if err != nil {
				t.Fatal(err)
			}
			if st.Merged == 0 {
				t.Fatal("merge drained nothing")
			}
			if ds := s.DeltaStats(); ds.Pending != 0 {
				t.Fatalf("pending after merge = %d", ds.Pending)
			}
			after, _ := s.Select(extent)
			if !valsEq(sortedVals(before), sortedVals(after)) {
				t.Fatalf("scan-after-merge differs from scan-with-overlay: %d vs %d rows",
					len(before), len(after))
			}
			// The merged rows are real base rows now: validate structure.
			switch impl := s.(type) {
			case *Segmenter:
				if err := impl.List().Validate(); err != nil {
					t.Fatalf("post-merge list invalid: %v", err)
				}
			case *Replicator:
				if err := impl.Validate(); err != nil {
					t.Fatalf("post-merge tree invalid: %v", err)
				}
			}
		})
	}
}

func TestDeltaAutoMergeThreshold(t *testing.T) {
	extent := domain.NewRange(0, 999)
	base := make([]domain.Value, 100)
	for i := range base {
		base[i] = int64(i * 7 % 1000)
	}
	for _, s := range deltaStrategies(base, extent) {
		t.Run(s.Name(), func(t *testing.T) {
			// Merge once 10 entries (40 bytes) accumulate.
			s.SetDeltaPolicy(40, 0)
			var merged int
			for i := 0; i < 25; i++ {
				st, err := s.Insert(int64(i))
				if err != nil {
					t.Fatal(err)
				}
				merged += st.Merged
			}
			if merged == 0 {
				t.Fatal("size threshold never triggered a merge-back")
			}
			ds := s.DeltaStats()
			if ds.Merges == 0 {
				t.Fatalf("delta stats report no merges: %+v", ds)
			}
			if ds.Pending >= 10 {
				t.Fatalf("pending %d after auto-merges, threshold 10 entries", ds.Pending)
			}
		})
	}
}

func TestDeltaViewPinsVisibility(t *testing.T) {
	extent := domain.NewRange(0, 999)
	base := []domain.Value{100, 200, 300}
	seg := NewSegmenter(extent, append([]domain.Value(nil), base...), 4, model.NewAPM(32, 128), nil)

	before := seg.Pin()
	seg.Insert(150)
	seg.Delete(200)
	seg.Update(300, 301)
	after := seg.Pin()

	if got := sortedVals(before.SelectRope(extent).Flatten()); !valsEq(got, []domain.Value{100, 200, 300}) {
		t.Fatalf("pre-write view sees writes: %v", got)
	}
	want := []domain.Value{100, 150, 301}
	if got := sortedVals(after.SelectRope(extent).Flatten()); !valsEq(got, want) {
		t.Fatalf("post-write view = %v, want %v", got, want)
	}
	// A merge-back must not disturb either pinned view (segmentation
	// views pin the list snapshot too).
	if _, err := seg.MergeDeltas(); err != nil {
		t.Fatal(err)
	}
	if got := sortedVals(before.SelectRope(extent).Flatten()); !valsEq(got, []domain.Value{100, 200, 300}) {
		t.Fatalf("pre-write view changed by merge: %v", got)
	}
	if got := sortedVals(after.SelectRope(extent).Flatten()); !valsEq(got, want) {
		t.Fatalf("post-write view changed by merge: %v", got)
	}
	if before.Count(extent) != 3 || after.Count(extent) != 3 {
		t.Fatal("view counts diverge from view selects")
	}
}

// TestDeltaViewReplicatorStableAcrossMerges pins replication views around
// writes, merge-backs and bulk loads: with the persistent replica tree a
// pinned (root, delta watermark) pair is a true snapshot, byte-identical
// to the segmentation View contract — the old stale/read-committed
// fallback is gone.
func TestDeltaViewReplicatorStableAcrossMerges(t *testing.T) {
	extent := domain.NewRange(0, 999)
	repl := NewReplicator(extent, []domain.Value{100, 200}, 4, model.NewAPM(32, 128), nil)
	v := repl.Pin()
	repl.Insert(150)
	if got := sortedVals(v.SelectRope(extent).Flatten()); !valsEq(got, []domain.Value{100, 200}) {
		t.Fatalf("pinned view sees later insert: %v", got)
	}
	if _, err := repl.MergeDeltas(); err != nil {
		t.Fatal(err)
	}
	// The merge-back drained the insert into the tree; the pinned view
	// must keep serving its snapshot, not the merged content.
	if got := sortedVals(v.SelectRope(extent).Flatten()); !valsEq(got, []domain.Value{100, 200}) {
		t.Fatalf("view changed by merge-back: %v", got)
	}
	if n := v.Count(extent); n != 2 {
		t.Fatalf("view count after merge = %d, want 2", n)
	}
	// A view pinned between the merge and a bulk load sees the merged
	// row but not the loaded one.
	v2 := repl.Pin()
	if _, err := repl.BulkLoad([]domain.Value{500}); err != nil {
		t.Fatal(err)
	}
	if got := sortedVals(v2.SelectRope(extent).Flatten()); !valsEq(got, []domain.Value{100, 150, 200}) {
		t.Fatalf("view changed by bulk load: %v", got)
	}
	// Fresh reads see everything.
	got, _ := repl.Select(extent)
	if !valsEq(sortedVals(got), []domain.Value{100, 150, 200, 500}) {
		t.Fatalf("live select = %v", sortedVals(got))
	}
}

// TestDeltaRaceStressScannersAndWriters runs 8 concurrent scanners
// against both strategies while 3 writers push point writes through the
// delta store with auto-merge enabled — the -race workhorse for the
// whole read-overlay/merge-back pipeline.
func TestDeltaRaceStressScannersAndWriters(t *testing.T) {
	extent := domain.NewRange(0, 9_999)
	rnd := rand.New(rand.NewSource(11))
	base := make([]domain.Value, 3_000)
	for i := range base {
		base[i] = rnd.Int63n(10_000)
	}
	for _, s := range deltaStrategies(base, extent) {
		t.Run(s.Name(), func(t *testing.T) {
			s.SetDeltaPolicy(256, 0) // merge every 64 entries: heavy churn
			var wg sync.WaitGroup
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					wrnd := rand.New(rand.NewSource(int64(100 + w)))
					for i := 0; i < 300; i++ {
						switch wrnd.Intn(3) {
						case 0:
							if _, err := s.Insert(wrnd.Int63n(10_000)); err != nil {
								t.Error(err)
								return
							}
						case 1:
							s.Delete(base[wrnd.Intn(len(base))])
						default:
							s.Update(base[wrnd.Intn(len(base))], wrnd.Int63n(10_000))
						}
					}
				}(w)
			}
			for r := 0; r < 8; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					qrnd := rand.New(rand.NewSource(int64(200 + r)))
					for i := 0; i < 150; i++ {
						lo := qrnd.Int63n(9_000)
						q := domain.NewRange(lo, lo+999)
						vals, _ := s.Select(q)
						for _, v := range vals {
							if !q.Contains(v) {
								t.Errorf("select returned %d outside %v", v, q)
								return
							}
						}
					}
				}(r)
			}
			wg.Wait()
			// The column must still be structurally sound and the content
			// must reconcile: drain and re-validate.
			if _, err := s.MergeDeltas(); err != nil {
				t.Fatal(err)
			}
			switch impl := s.(type) {
			case *Segmenter:
				if err := impl.List().Validate(); err != nil {
					t.Fatal(err)
				}
			case *Replicator:
				if err := impl.Validate(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestDeltaMergeAbsorbedByReorganization checks the acceptance loop: a
// merged batch becomes base rows that later queries split and re-encode
// like any others.
func TestDeltaMergeAbsorbedByReorganization(t *testing.T) {
	extent := domain.NewRange(0, 99_999)
	rnd := rand.New(rand.NewSource(3))
	base := make([]domain.Value, 20_000)
	for i := range base {
		base[i] = rnd.Int63n(100_000)
	}
	seg := NewSegmenter(extent, base, 4, model.NewAPM(3*1024, 12*1024), nil)
	seg.SetCompression(compress.Auto)
	seg.SetDeltaPolicy(0, 0)
	for i := 0; i < 500; i++ {
		seg.Insert(rnd.Int63n(100_000))
	}
	st, err := seg.MergeDeltas()
	if err != nil {
		t.Fatal(err)
	}
	if st.Merged != 500 {
		t.Fatalf("merged %d entries, want 500", st.Merged)
	}
	var splits, recodes int
	for i := 0; i < 200; i++ {
		lo := rnd.Int63n(90_000)
		_, qst := seg.Select(domain.NewRange(lo, lo+9_999))
		splits += qst.Splits
		recodes += qst.Recodes
	}
	if splits == 0 || recodes == 0 {
		t.Fatalf("post-merge queries drove no reorganization: splits=%d recodes=%d", splits, recodes)
	}
	if err := seg.List().Validate(); err != nil {
		t.Fatal(err)
	}
}
