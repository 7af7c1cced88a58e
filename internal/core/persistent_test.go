package core

// Tests for the persistent (path-copying) replica tree: lock-free read
// path, batched delta merge rewrites, and snapshot sharing.

import (
	"math/rand"
	"sync"
	"testing"

	"selforg/internal/domain"
	"selforg/internal/model"
)

// TestReplicatorMergeRewritesEachReplicaOnce is the delta-aware
// merge-back acceptance test: a batch of tombstones (and inserts)
// covering one replica must trigger exactly one rewrite of that replica
// — one Materialize event per touched materialized node per merge, not
// one per tombstone.
func TestReplicatorMergeRewritesEachReplicaOnce(t *testing.T) {
	tr := &countTracer{}
	r := NewReplicator(domain.NewRange(0, 999), denseColumn(1000), 1, model.Always{}, tr)
	// Build a two-level tree: root + [0,499]/[500,999] replicas, then
	// sub-replicas of [0,249] — deep paths multiply the copies a naive
	// per-tombstone rewrite would pay.
	r.Select(domain.NewRange(0, 499))
	r.Select(domain.NewRange(0, 249))
	r.Select(domain.NewRange(500, 999))
	matNodes := r.SegmentCount()
	if matNodes < 3 {
		t.Fatalf("setup built only %d materialized replicas", matNodes)
	}

	// 40 tombstones + 10 inserts, all inside [0,249]: the value's path
	// crosses every materialized copy of that range.
	for v := int64(0); v < 40; v++ {
		if ok, _, _ := r.Delete(v); !ok {
			t.Fatalf("delete %d refused", v)
		}
	}
	for v := int64(0); v < 10; v++ {
		if _, err := r.Insert(200 + v); err != nil {
			t.Fatal(err)
		}
	}
	// Count the copies of [0,249] (the touched path) before merging.
	touched := 0
	sentinel := r.eng.Base()
	sentinel.walk(func(n *node, _ int) {
		if n != sentinel && !n.seg.Virtual && n.seg.Rng.Overlaps(domain.NewRange(0, 249)) {
			touched++
		}
	})
	matsBefore := tr.mats
	if _, err := r.MergeDeltas(); err != nil {
		t.Fatal(err)
	}
	rewrites := tr.mats - matsBefore
	if rewrites != touched {
		t.Fatalf("merge of 50 entries rewrote %d replicas, want one rewrite per touched replica (%d)",
			rewrites, touched)
	}
	got, _ := r.Select(domain.NewRange(0, 999))
	if len(got) != 1000-40+10 {
		t.Fatalf("post-merge cardinality = %d, want %d", len(got), 1000-40+10)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicatorConvergedCoverSkipsWriter pins the zero-lock contract:
// once a query's cover is fully materialized and leaf-aligned, the read
// path detects that no model in the system could reorganize anything and
// never touches the writer pipeline.
func TestReplicatorConvergedCoverSkipsWriter(t *testing.T) {
	r := NewReplicator(domain.NewRange(0, 999), denseColumn(1000), 1, model.Always{}, nil)
	q := domain.NewRange(250, 749)
	r.Select(q) // splits the root and materializes [250,749]
	root, _ := r.eng.Pin()
	cover := getCover(root, q)
	if len(cover) != 1 || cover[0].seg.Virtual {
		t.Fatalf("query not converged to one materialized cover: %v", cover)
	}
	if coverNeedsAdaptation(cover, q) {
		t.Fatal("aligned materialized cover still reports adaptation work")
	}
	// And a misaligned query on the same tree does.
	q2 := domain.NewRange(200, 300)
	cover2 := getCover(root, q2)
	if !coverNeedsAdaptation(cover2, q2) {
		t.Fatal("partially overlapping query reports no adaptation work")
	}
}

// TestReplicatorSnapshotSharing checks the path-copying economics: a
// reorganization publishes a new root that shares every untouched
// subtree with the old one.
func TestReplicatorSnapshotSharing(t *testing.T) {
	r := NewReplicator(domain.NewRange(0, 9999), denseColumn(10_000), 1, model.Always{}, nil)
	r.Select(domain.NewRange(0, 4999))
	r.Select(domain.NewRange(5000, 9999))
	before := r.eng.Base()
	// Locate the [5000,9999] node in the old tree.
	var oldHi *node
	before.walk(func(n *node, _ int) {
		if n != before && n.seg.Rng == domain.NewRange(5000, 9999) {
			oldHi = n
		}
	})
	if oldHi == nil {
		t.Fatal("no [5000,9999] replica")
	}
	r.Select(domain.NewRange(1000, 1999)) // reorganizes the low half only
	after := r.eng.Base()
	if after == before {
		t.Fatal("reorganization did not publish a new root")
	}
	found := false
	after.walk(func(n *node, _ int) {
		if n == oldHi {
			found = true
		}
	})
	if !found {
		t.Fatal("untouched subtree was copied instead of shared")
	}
}

// TestReplicatorPinnedScanDuringReorganization holds a pinned root
// across heavy reorganization and merges: the pinned tree must keep
// answering exactly as of the pin.
func TestReplicatorPinnedScanDuringReorganization(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vals := make([]domain.Value, 5000)
	for i := range vals {
		vals[i] = rng.Int63n(10_000)
	}
	r := NewReplicator(domain.NewRange(0, 9999), vals, 4, model.NewAPM(256, 1024), nil)
	v := r.Pin()
	want := v.SelectRope(domain.NewRange(0, 9999)).Flatten()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				lo := g.Int63n(9000)
				r.Select(domain.Range{Lo: lo, Hi: lo + 999})
				if i%10 == 0 {
					r.Insert(g.Int63n(10_000))
				}
			}
			r.MergeDeltas()
		}(w)
	}
	wg.Wait()
	got := v.SelectRope(domain.NewRange(0, 9999)).Flatten()
	equalMultiset(t, got, want)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}
