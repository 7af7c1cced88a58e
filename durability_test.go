package selforg_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"selforg"
)

// seedVals builds a deterministic initial load of n values in [lo, hi].
func seedVals(seed int64, n int, lo, hi int64) []int64 {
	rnd := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = lo + rnd.Int63n(hi-lo+1)
	}
	return vals
}

// durableWorkload applies a deterministic mixed write stream to col and
// the in-memory reference ref: inserts, deletes (some missing),
// updates (cross-shard ones included when sharded) and a few queries to
// drive adaptation. Acceptance must agree op by op.
func durableWorkload(t *testing.T, seed int64, lo, hi int64, col, ref *selforg.Column) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	for i := 0; i < 250; i++ {
		switch rnd.Intn(5) {
		case 0, 1:
			v := lo + rnd.Int63n(hi-lo+1)
			if _, err := col.Insert(v); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Insert(v); err != nil {
				t.Fatal(err)
			}
		case 2:
			v := lo + rnd.Int63n(2*(hi-lo+1)) // half the probes miss the extent
			okC, _, _ := col.Delete(v)
			okR, _, _ := ref.Delete(v)
			if okC != okR {
				t.Fatalf("op %d: delete %d acceptance diverged: %v vs %v", i, v, okC, okR)
			}
		case 3:
			// Unconstrained old/new: exercises the cross-shard barrier.
			old := lo + rnd.Int63n(hi-lo+1)
			new := lo + rnd.Int63n(hi-lo+1)
			okC, _, _ := col.Update(old, new)
			okR, _, _ := ref.Update(old, new)
			if okC != okR {
				t.Fatalf("op %d: update %d->%d acceptance diverged: %v vs %v", i, old, new, okC, okR)
			}
		default:
			a := lo + rnd.Int63n(hi-lo+1)
			b := a + rnd.Int63n(hi-a+1)
			rc, _ := col.Select(a, b)
			rr, _ := ref.Select(a, b)
			if !intsEq(sortInts(rc), sortInts(rr)) {
				t.Fatalf("op %d: select [%d,%d] diverged", i, a, b)
			}
		}
	}
}

// requireSameContent compares the full logical content of two columns.
func requireSameContent(t *testing.T, lo, hi int64, got, want *selforg.Column) {
	t.Helper()
	gv, _ := got.Select(lo, hi)
	wv, _ := want.Select(lo, hi)
	if !intsEq(sortInts(gv), sortInts(wv)) {
		t.Fatalf("content diverged: %d vs %d rows", len(gv), len(wv))
	}
	gn, _ := got.Count(lo, hi)
	wn, _ := want.Count(lo, hi)
	if gn != wn {
		t.Fatalf("count diverged: %d vs %d", gn, wn)
	}
}

// TestDurableRecoveryMatrix: across strategy × shards, a column closed
// after a mixed write stream and reopened over the same directory
// reproduces exactly the content of an uninterrupted in-memory run.
func TestDurableRecoveryMatrix(t *testing.T) {
	const lo, hi = 0, 19_999
	for _, strat := range []selforg.Strategy{selforg.Segmentation, selforg.Replication} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v-shards%d", strat, shards), func(t *testing.T) {
				dir := t.TempDir()
				opts := selforg.Options{Strategy: strat, Model: selforg.APM, Shards: shards}
				durOpts := opts
				durOpts.Durability = selforg.Durability{Dir: dir}

				col, err := selforg.New(selforg.Interval{Lo: lo, Hi: hi}, seedVals(3, 5_000, lo, hi), durOpts)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := selforg.New(selforg.Interval{Lo: lo, Hi: hi}, seedVals(3, 5_000, lo, hi), opts)
				if err != nil {
					t.Fatal(err)
				}
				durableWorkload(t, 17, lo, hi, col, ref)
				requireSameContent(t, lo, hi, col, ref)
				col.Close()

				// Reopen: same directory, same initial load, same options.
				re, err := selforg.New(selforg.Interval{Lo: lo, Hi: hi}, seedVals(3, 5_000, lo, hi), durOpts)
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				requireSameContent(t, lo, hi, re, ref)
				st, ok := re.WALStats()
				if !ok {
					t.Fatal("durable column reports no WAL stats")
				}
				// The workload's writes must have come back through the
				// checkpoint and/or the replayed log.
				if st.Replayed == 0 && st.LastSeq == 0 {
					t.Fatalf("nothing recovered: %+v", st)
				}
				// The reopened column accepts further writes.
				if _, err := re.Insert(lo + 1); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.Insert(lo + 1); err != nil {
					t.Fatal(err)
				}
				requireSameContent(t, lo, hi, re, ref)
			})
		}
	}
}

// TestDurableCheckpointAndRecover: a forced checkpoint truncates the
// logs; Recover rebuilds in place and replays only the post-checkpoint
// batches, reproducing the pre-recovery content exactly.
func TestDurableCheckpointAndRecover(t *testing.T) {
	const lo, hi = 0, 9_999
	dir := t.TempDir()
	opts := selforg.Options{Model: selforg.APM, Shards: 2, DeltaMaxBytes: -1, DeltaMaxRatio: -1}
	opts.Durability = selforg.Durability{Dir: dir}
	col, err := selforg.New(selforg.Interval{Lo: lo, Hi: hi}, seedVals(5, 2_000, lo, hi), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	for v := int64(0); v < 50; v++ {
		if _, err := col.Insert(v * 100); err != nil {
			t.Fatal(err)
		}
	}
	if err := col.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, _ := col.WALStats()
	if st.Checkpoints != 1 || st.WALSize != 0 {
		t.Fatalf("post-checkpoint stats: %+v", st)
	}
	// Post-checkpoint writes land in the truncated logs.
	for v := int64(0); v < 7; v++ {
		if _, err := col.Insert(v*100 + 1); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := col.Select(lo, hi)
	wantSorted := sortInts(want)

	if err := col.Recover(); err != nil {
		t.Fatal(err)
	}
	got, _ := col.Select(lo, hi)
	if !intsEq(sortInts(got), wantSorted) {
		t.Fatalf("recover changed content: %d vs %d rows", len(got), len(want))
	}
	st, _ = col.WALStats()
	// Only the 7 post-checkpoint singleton batches replay (the 50
	// pre-checkpoint ones live in the checkpoint now).
	if st.Replayed == 0 || st.Replayed > 7 {
		t.Fatalf("replayed %d batches, want 1..7", st.Replayed)
	}
	// And the recovered column keeps committing.
	if _, err := col.Insert(4_242); err != nil {
		t.Fatal(err)
	}
	if n, _ := col.Count(4_242, 4_242); n == 0 {
		t.Fatal("post-recover insert invisible")
	}
}

// TestDurableGroupCommitPublications is the write-amplification fix's
// facade-level assertion: concurrent durable writers share snapshot
// publications — one per committed group, not one per write.
func TestDurableGroupCommitPublications(t *testing.T) {
	const lo, hi = 0, 99_999
	opts := selforg.Options{Model: selforg.APM, DeltaMaxBytes: -1, DeltaMaxRatio: -1}
	opts.Durability = selforg.Durability{Dir: t.TempDir()}
	col, err := selforg.New(selforg.Interval{Lo: lo, Hi: hi}, seedVals(9, 1_000, lo, hi), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := col.Insert(int64(w*per + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	ws, _ := col.WALStats()
	ds := col.DeltaStats()
	if ws.Records != writers*per {
		t.Fatalf("committed %d records, want %d", ws.Records, writers*per)
	}
	if ws.Batches >= ws.Records {
		t.Fatalf("no group commit: %d batches for %d records", ws.Batches, ws.Records)
	}
	// One publication and one MVCC version per committed group.
	if ds.Publications != ws.Batches {
		t.Fatalf("publications %d != batches %d", ds.Publications, ws.Batches)
	}
	if ds.Watermark != ws.Batches {
		t.Fatalf("watermark %d != batches %d", ds.Watermark, ws.Batches)
	}
	if n, _ := col.Count(0, writers*per-1); n < writers*per {
		t.Fatalf("count %d after %d inserts", n, writers*per)
	}
}

// TestDurableRefusedInsertNotLogged: an INSERT outside the extent is
// refused before it reaches the committer — nothing is appended to a
// shard log and nothing is fsynced for a write that cannot be applied.
// Out-of-extent DELETE/UPDATE keep going through the committer (the
// store counts them as DeleteMisses).
func TestDurableRefusedInsertNotLogged(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			col, err := selforg.New(selforg.Interval{Lo: 0, Hi: 999}, seedVals(5, 1_000, 0, 999), selforg.Options{
				Shards:     shards,
				Durability: selforg.Durability{Dir: t.TempDir(), Fsync: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer col.Close()
			before, _ := col.WALStats()
			if _, err := col.Insert(5000); err == nil {
				t.Fatal("insert outside extent accepted")
			}
			after, _ := col.WALStats()
			if after.Records != before.Records || after.Bytes != before.Bytes || after.Fsyncs != before.Fsyncs {
				t.Errorf("refused insert reached the log: before %+v, after %+v", before, after)
			}
			if ok, _, err := col.Delete(5000); ok || err != nil {
				t.Errorf("delete outside extent = (%v, %v), want a clean miss", ok, err)
			}
			if got := col.DeltaStats().DeleteMisses; got != 1 {
				t.Errorf("DeleteMisses = %d, want 1", got)
			}
		})
	}
}

// TestDurableCheckpointCrashWindowReplaysOnce pins recovery across the
// crash window between a checkpoint's manifest rename and its log
// truncation: the logs still hold every batch the checkpoint covers,
// the last one carrying the checkpoint's own seq. Reopening must replay
// none of them, so every acked write is present exactly once.
func TestDurableCheckpointCrashWindowReplaysOnce(t *testing.T) {
	const lo, hi = 0, 9_999
	opts := selforg.Options{Model: selforg.APM, Shards: 2, DeltaMaxBytes: -1, DeltaMaxRatio: -1}
	durOpts := opts
	dir := t.TempDir()
	durOpts.Durability = selforg.Durability{Dir: dir}
	col, err := selforg.New(selforg.Interval{Lo: lo, Hi: hi}, seedVals(7, 1_000, lo, hi), durOpts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := selforg.New(selforg.Interval{Lo: lo, Hi: hi}, seedVals(7, 1_000, lo, hi), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	// Inserts on both shards, an update and a delete; the last write is
	// an insert, so a replayed final batch would show as a duplicate.
	for _, c := range []*selforg.Column{col, ref} {
		for v := int64(0); v < 20; v++ {
			if _, err := c.Insert(v*500 + 3); err != nil {
				t.Fatal(err)
			}
		}
		if ok, _, err := c.Update(503, 9_503); !ok || err != nil {
			t.Fatalf("update: %v %v", ok, err)
		}
		if ok, _, err := c.Delete(1_003); !ok || err != nil {
			t.Fatalf("delete: %v %v", ok, err)
		}
		if _, err := c.Insert(9_997); err != nil {
			t.Fatal(err)
		}
	}

	// The crash window: copy the logs aside, checkpoint (which truncates
	// them), close, and put the pre-truncation logs back.
	logs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(logs) != 2 {
		t.Fatalf("logs %v: %v", logs, err)
	}
	saved := make(map[string][]byte, len(logs))
	for _, p := range logs {
		if saved[p], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := col.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	col.Close()
	for p, b := range saved {
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	re, err := selforg.New(selforg.Interval{Lo: lo, Hi: hi}, seedVals(7, 1_000, lo, hi), durOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireSameContent(t, lo, hi, re, ref)
	if st, _ := re.WALStats(); st.Replayed != 0 {
		t.Fatalf("replayed %d batches the checkpoint covers", st.Replayed)
	}
}

// TestCheckpointRecoverKeepsLayout: a checkpoint records each shard's
// segments, so a segmented column recovers the layout its queries
// taught: after MergeDeltas → Checkpoint → Recover, Layout() equals
// Layout() before, and so does the content.
func TestCheckpointRecoverKeepsLayout(t *testing.T) {
	const lo, hi = 0, 99_999
	for _, comp := range []selforg.Compression{selforg.CompressionOff, selforg.CompressionAuto} {
		for _, shards := range []int{1, 4} {
			for _, fsync := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v-shards%d-fsync%v", comp, shards, fsync), func(t *testing.T) {
					opts := selforg.Options{Model: selforg.APM, Compression: comp, Shards: shards, DeltaMaxBytes: 1 << 10}
					opts.Durability = selforg.Durability{Dir: t.TempDir(), Fsync: fsync}
					col, err := selforg.New(selforg.Interval{Lo: lo, Hi: hi}, seedVals(7, 20_000, lo, hi), opts)
					if err != nil {
						t.Fatal(err)
					}
					defer col.Close()
					rnd := rand.New(rand.NewSource(11))
					for i := 0; i < 300; i++ {
						a := rnd.Int63n(hi)
						col.Count(a, a+rnd.Int63n(3_000))
						v := rnd.Int63n(hi + 1)
						if _, err := col.Insert(v); err != nil {
							t.Fatal(err)
						}
						if i%3 == 0 {
							col.Delete(v)
						}
					}
					if _, err := col.MergeDeltas(); err != nil {
						t.Fatal(err)
					}
					layout, segs := col.Layout(), col.SegmentCount()
					if segs <= shards {
						t.Fatalf("queries left %d segments over %d shards: nothing to keep", segs, shards)
					}
					want, _ := col.Select(lo, hi)
					if err := col.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					if err := col.Recover(); err != nil {
						t.Fatal(err)
					}
					if got := col.Layout(); got != layout {
						t.Fatalf("layout after recover:\n%s\nwant:\n%s", got, layout)
					}
					got, _ := col.Select(lo, hi)
					if !intsEq(sortInts(got), sortInts(want)) {
						t.Fatalf("recover changed content: %d vs %d rows", len(got), len(want))
					}
					if err := col.Validate(); err != nil {
						t.Fatal(err)
					}
					// A recovery that replays a log (over unencoded shards,
					// encoded after it) keeps the content and the encoding.
					stored := col.StorageBytes()
					for i := 0; i < 200; i++ {
						v := rnd.Int63n(hi + 1)
						if _, err := col.Insert(v); err != nil {
							t.Fatal(err)
						}
						if i%2 == 0 {
							col.Update(v, hi-v)
						}
					}
					want, _ = col.Select(lo, hi)
					if err := col.Recover(); err != nil {
						t.Fatal(err)
					}
					if st, _ := col.WALStats(); st.Replayed == 0 {
						t.Fatal("second recover replayed nothing")
					}
					got, _ = col.Select(lo, hi)
					if !intsEq(sortInts(got), sortInts(want)) {
						t.Fatalf("replaying recover changed content: %d vs %d rows", len(got), len(want))
					}
					if err := col.Validate(); err != nil {
						t.Fatal(err)
					}
					if comp == selforg.CompressionAuto && (stored >= col.UncompressedBytes() || col.StorageBytes() >= col.UncompressedBytes()) {
						t.Fatalf("stored %d then %d bytes of %d: recovery left the column unencoded", stored, col.StorageBytes(), col.UncompressedBytes())
					}
				})
			}
		}
	}
}

// TestCheckpointSkipsMergeBack: merge-backs alone do not checkpoint; a
// checkpoint waits for the logs to reach their size cap.
func TestCheckpointSkipsMergeBack(t *testing.T) {
	const lo, hi = 0, 9_999
	opts := selforg.Options{Model: selforg.APM, DeltaMaxBytes: 256}
	opts.Durability = selforg.Durability{Dir: t.TempDir()}
	col, err := selforg.New(selforg.Interval{Lo: lo, Hi: hi}, seedVals(5, 2_000, lo, hi), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	for v := int64(0); v < 200; v++ {
		if _, err := col.Insert(v * 50); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := col.WALStats()
	if m := col.DeltaStats().Merges; m == 0 || st.Checkpoints != 0 || st.WALSize == 0 {
		t.Fatalf("%d merge-backs, WAL %+v: want merge-backs, no checkpoint and a non-empty log", m, st)
	}
}
