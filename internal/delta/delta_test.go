package delta

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"selforg/internal/domain"
)

func all(q domain.Range) domain.Range { return q }

// overlayAll applies snap to base over the whole domain.
func overlayAll(s *Snapshot, base []domain.Value) []domain.Value {
	return s.Overlay(domain.NewRange(-1<<62, 1<<62), append([]domain.Value(nil), base...))
}

func sorted(vs []domain.Value) []domain.Value {
	out := append([]domain.Value(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// insertOne, deleteOne and updateOne write one op through Apply, the
// store's one write body, as a batch of one.
func insertOne(d *Store, v domain.Value) { applyOne(d, Op{Kind: OpInsert, V: v}, nil) }

func deleteOne(d *Store, v domain.Value, baseCount func(domain.Value) int64) bool {
	return applyOne(d, Op{Kind: OpDelete, V: v}, baseCount)
}

func updateOne(d *Store, old, new domain.Value, baseCount func(domain.Value) int64) bool {
	return applyOne(d, Op{Kind: OpUpdate, V: old, New: new}, baseCount)
}

func applyOne(d *Store, op Op, baseCount func(domain.Value) int64) bool {
	var res [1]bool
	d.Apply(0, []Op{op}, res[:], baseCount)
	return res[0]
}

func eq(a, b []domain.Value) bool {
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

func TestDeltaInsertVisibility(t *testing.T) {
	d := NewStore(4)
	before := d.Snapshot()
	insertOne(d, 10)
	after := d.Snapshot()

	if got := overlayAll(before, nil); len(got) != 0 {
		t.Fatalf("insert visible through pre-write snapshot: %v", got)
	}
	if got := overlayAll(after, nil); !eq(got, []domain.Value{10}) {
		t.Fatalf("insert not visible through post-write snapshot: %v", got)
	}
	if after.Watermark() <= before.Watermark() {
		t.Fatalf("watermark did not advance: %d -> %d", before.Watermark(), after.Watermark())
	}
}

func TestDeltaDeleteMasksOneOccurrence(t *testing.T) {
	d := NewStore(4)
	base := []domain.Value{5, 5, 7}
	count := func(v domain.Value) int64 {
		var n int64
		for _, b := range base {
			if b == v {
				n++
			}
		}
		return n
	}
	if !deleteOne(d, 5, count) {
		t.Fatal("delete of existing base value refused")
	}
	got := sorted(overlayAll(d.Snapshot(), base))
	if !eq(got, []domain.Value{5, 7}) {
		t.Fatalf("overlay after one delete = %v, want [5 7]", got)
	}
	if !deleteOne(d, 5, count) {
		t.Fatal("second delete of duplicated value refused")
	}
	if deleteOne(d, 5, count) {
		t.Fatal("third delete accepted but only two base rows carry 5")
	}
	got = sorted(overlayAll(d.Snapshot(), base))
	if !eq(got, []domain.Value{7}) {
		t.Fatalf("overlay after two deletes = %v, want [7]", got)
	}
	st := d.Stats()
	if st.Deletes != 2 || st.DeleteMisses != 1 {
		t.Fatalf("stats = %+v, want 2 deletes, 1 miss", st)
	}
}

func TestDeltaDeleteCancelsPendingInsert(t *testing.T) {
	d := NewStore(4)
	none := func(domain.Value) int64 { return 0 }
	insertOne(d, 42)
	mid := d.Snapshot() // pinned while the insert is live
	if !deleteOne(d, 42, none) {
		t.Fatal("delete of pending insert refused")
	}
	// The older watermark still sees the insert; the newer does not.
	if got := overlayAll(mid, nil); !eq(got, []domain.Value{42}) {
		t.Fatalf("pinned snapshot lost the insert: %v", got)
	}
	if got := overlayAll(d.Snapshot(), nil); len(got) != 0 {
		t.Fatalf("cancelled insert still visible: %v", got)
	}
	// The cancelled insert never reaches the base (a delete that cancels
	// a pending insert adds no tombstone entry — it marks the insert).
	n, err := d.Merge(func(ins, del []domain.Value, commit func()) error {
		if len(ins) != 0 || len(del) != 0 {
			t.Fatalf("cancelled insert reached merge: ins=%v del=%v", ins, del)
		}
		commit()
		return nil
	})
	if err != nil || n != 1 {
		t.Fatalf("merge drained %d entries (err %v), want 1", n, err)
	}
}

func TestDeltaUpdateIsAtomic(t *testing.T) {
	d := NewStore(4)
	base := []domain.Value{1}
	one := func(v domain.Value) int64 {
		if v == 1 {
			return 1
		}
		return 0
	}
	before := d.Snapshot()
	if !updateOne(d, 1, 9, one) {
		t.Fatal("update refused")
	}
	after := d.Snapshot()
	if got := sorted(overlayAll(before, base)); !eq(got, []domain.Value{1}) {
		t.Fatalf("pre-update snapshot = %v, want [1]", got)
	}
	if got := sorted(overlayAll(after, base)); !eq(got, []domain.Value{9}) {
		t.Fatalf("post-update snapshot = %v, want [9]", got)
	}
	if updateOne(d, 3, 4, one) {
		t.Fatal("update of absent value accepted")
	}
}

func TestDeltaCountDelta(t *testing.T) {
	d := NewStore(4)
	base := []domain.Value{10, 20}
	cnt := func(v domain.Value) int64 {
		var n int64
		for _, b := range base {
			if b == v {
				n++
			}
		}
		return n
	}
	insertOne(d, 15)
	deleteOne(d, 20, cnt)
	s := d.Snapshot()
	for _, c := range []struct {
		q      domain.Range
		n, sum int64
	}{
		{all(domain.NewRange(0, 100)), 0, 15 - 20}, // one insert, one tombstone
		{domain.NewRange(12, 16), 1, 15},
		{domain.NewRange(18, 25), -1, -20},
		{domain.NewRange(30, 40), 0, 0},
	} {
		if n, sum := s.CountDelta(c.q); n != c.n || sum != c.sum {
			t.Fatalf("CountDelta %v = (%d, %d), want (%d, %d)", c.q, n, sum, c.n, c.sum)
		}
	}
}

func TestDeltaMergeAbortLeavesStoreIntact(t *testing.T) {
	d := NewStore(4)
	insertOne(d, 1)
	insertOne(d, 2)
	_, err := d.Merge(func(ins, del []domain.Value, commit func()) error {
		return errBoom
	})
	if err != errBoom {
		t.Fatalf("merge error = %v, want errBoom", err)
	}
	if got := sorted(overlayAll(d.Snapshot(), nil)); !eq(got, []domain.Value{1, 2}) {
		t.Fatalf("aborted merge lost entries: %v", got)
	}
	if st := d.Stats(); st.Merges != 0 || st.Pending != 2 {
		t.Fatalf("stats after aborted merge = %+v", st)
	}
}

var errBoom = &boomErr{}

type boomErr struct{}

func (*boomErr) Error() string { return "boom" }

// TestDeltaConcurrentWritersAndReaders hammers the store with parallel
// writers while readers continuously pin snapshots and overlay them —
// the -race workhorse for the store itself.
func TestDeltaConcurrentWritersAndReaders(t *testing.T) {
	d := NewStore(4)
	none := func(domain.Value) int64 { return 0 }
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := d.Snapshot()
				got := overlayAll(s, nil)
				// A snapshot's overlay must be internally consistent: its
				// length equals its own CountDelta over the whole domain.
				n, sum := s.CountDelta(domain.NewRange(-1<<62, 1<<62))
				var want int64
				for _, v := range got {
					want += v
				}
				if int64(len(got)) != n || sum != want {
					t.Error("snapshot overlay and count/sum disagree")
					return
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				v := domain.Value(w*1000 + i)
				insertOne(d, v)
				if i%3 == 0 {
					deleteOne(d, v, none)
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestRemoveOccurrencesMatchesMap holds the filtered multiset
// subtraction to a plain map loop: the same kept values in the same
// order, the same removed count and the same leftover tombstones, for
// one to three tombstones and for enough to fill the filter.
func TestRemoveOccurrencesMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, ndead := range []int{1, 2, 3, 200} {
		for round := 0; round < 20; round++ {
			vals := make([]domain.Value, 2000)
			for i := range vals {
				vals[i] = domain.Value(rng.Int63n(500)) - 250
			}
			vals[0], vals[1] = math.MinInt64, math.MaxInt64
			dead := map[domain.Value]int{}
			for i := 0; i < ndead; i++ {
				dead[vals[rng.Intn(len(vals))]] += 1 + rng.Intn(2)
			}
			dead[1<<40]++ // a tombstone with no target
			want := map[domain.Value]int{}
			for v, n := range dead {
				want[v] = n
			}
			var wantKept []domain.Value
			var wantRemoved int64
			for _, v := range vals {
				if want[v] > 0 {
					want[v]--
					wantRemoved++
					continue
				}
				wantKept = append(wantKept, v)
			}
			kept, removed := RemoveOccurrences(append([]domain.Value(nil), vals...), dead)
			if removed != wantRemoved || !reflect.DeepEqual(kept, wantKept) || !reflect.DeepEqual(dead, want) {
				t.Fatalf("%d tombstones: removed %d kept %d, want %d and %d (leftovers %v, want %v)",
					ndead, removed, len(kept), wantRemoved, len(wantKept), dead, want)
			}
		}
	}
}
