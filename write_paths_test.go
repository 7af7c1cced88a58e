package selforg

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"selforg/internal/core"
	"selforg/internal/delta"
	"selforg/internal/domain"
	"selforg/internal/model"
	"selforg/internal/shard"
)

// The write script every entry point must agree on. The column holds
// 0, 50, 100, …, 950 over the extent [0, 999]; with four shards the
// boundaries fall at 250, 500 and 750. Each row is one op, its expected
// acceptance and why.
var writeScript = []struct {
	op   delta.Op
	ok   bool
	what string
}{
	{delta.Op{Kind: delta.OpInsert, V: 5}, true, "insert in extent"},
	{delta.Op{Kind: delta.OpInsert, V: 5000}, false, "insert out of extent"},
	{delta.Op{Kind: delta.OpDelete, V: 50}, true, "delete hits a base row"},
	{delta.Op{Kind: delta.OpDelete, V: 51}, false, "delete misses"},
	{delta.Op{Kind: delta.OpDelete, V: 5000}, false, "delete out of extent"},
	{delta.Op{Kind: delta.OpDelete, V: 5}, true, "delete cancels the pending insert"},
	{delta.Op{Kind: delta.OpUpdate, V: 100, New: 120}, true, "update within one shard"},
	{delta.Op{Kind: delta.OpUpdate, V: 150, New: 900}, true, "update across shards (0 -> 3)"},
	{delta.Op{Kind: delta.OpUpdate, V: 151, New: 152}, false, "update misses"},
	{delta.Op{Kind: delta.OpUpdate, V: 200, New: 5000}, false, "update out of extent"},
	{delta.Op{Kind: delta.OpInsert, V: 600}, true, "insert a value the base holds"},
	{delta.Op{Kind: delta.OpDelete, V: 600}, true, "delete it again: the base row stays"},
}

// writeScriptFinal is the column's content after the script.
var writeScriptFinal = []int64{0, 120, 200, 250, 300, 350, 400, 450, 500, 550, 600, 650, 700, 750, 800, 850, 900, 900, 950}

// writeScriptStats is the expected DeltaStats after the script, by
// shard count: a cross-shard update is accounted as one delete plus one
// insert, a same-shard one as an update. The last three fields pin the
// single-op path's placement — every accepted op publishes once from
// the unsorted tail under its own version (the cross-shard update's two
// halves publish twice under ONE version) and seals no run; they are
// compared only where ops arrive one at a time at the strategy.
var writeScriptStats = map[int]delta.Stats{
	1: {Inserts: 2, Updates: 2, Deletes: 3, DeleteMisses: 4, Runs: 0, Publications: 7, Watermark: 7},
	4: {Inserts: 3, Updates: 1, Deletes: 4, DeleteMisses: 4, Runs: 0, Publications: 8, Watermark: 7},
}

// writeScriptBatchPlacement pins the placement of the script applied as
// ONE ApplyOps call at the strategy: each shard sub-batch that accepts
// an op mints one version and publishes once, into the tail. Unsharded,
// that is the whole script. With four shards the cross-shard update
// splits the batch: ops 0–6 (shard 0, version 1), the update's stamped
// pair (shards 0 and 3, version 2, two publications), then ops 8–11 —
// shard 0's two refused updates publish nothing, shard 2's insert and
// delete of 600 take version 3.
var writeScriptBatchPlacement = map[int]delta.Stats{
	1: {Runs: 0, Publications: 1, Watermark: 1},
	4: {Runs: 0, Publications: 4, Watermark: 3},
}

// writeEntry is one way into the write path.
type writeEntry struct {
	apply   func(ops []delta.Op) ([]bool, error) // nil: nothing to apply (recovered state)
	content func() []int64
	stats   func() delta.Stats
	// place pins Runs, Publications and Watermark by shard count (nil:
	// not pinned — the committer's grouping depends on timing).
	place map[int]delta.Stats
}

// TestWriteEntryPointsAgree runs the one script through every way in —
// strategy single ops, strategy ApplyOps, the in-memory facade, the
// durable facade, and the durable column closed and reopened — across
// strategy × shards, and holds each to the same acceptance vector, final
// content and write counters.
func TestWriteEntryPointsAgree(t *testing.T) {
	extent := Interval{Lo: 0, Hi: 999}
	base := func() []int64 {
		vals := make([]int64, 0, 20)
		for v := int64(0); v < 1000; v += 50 {
			vals = append(vals, v)
		}
		return vals
	}
	ops := make([]delta.Op, len(writeScript))
	wantOK := make([]bool, len(writeScript))
	for i, row := range writeScript {
		ops[i], wantOK[i] = row.op, row.ok
	}

	// singly applies the script one op at a time through the three
	// single-op methods of a strategy or of the facade.
	singly := func(ins func(int64) error, del func(int64) (bool, error), upd func(a, b int64) (bool, error)) func([]delta.Op) ([]bool, error) {
		return func(ops []delta.Op) ([]bool, error) {
			res := make([]bool, len(ops))
			for i, op := range ops {
				var err error
				switch op.Kind {
				case delta.OpInsert:
					res[i] = ins(op.V) == nil // a refused insert is an error by contract
				case delta.OpDelete:
					res[i], err = del(op.V)
				case delta.OpUpdate:
					res[i], err = upd(op.V, op.New)
				}
				if err != nil {
					return res, fmt.Errorf("op %d (%s): %w", i, writeScript[i].what, err)
				}
			}
			return res, nil
		}
	}
	overStrategy := func(s core.DeltaStrategy) writeEntry {
		return writeEntry{
			content: func() []int64 { vals, _ := s.Select(domain.Range{Lo: extent.Lo, Hi: extent.Hi}); return vals },
			stats:   s.DeltaStats,
		}
	}
	overFacade := func(c *Column) writeEntry {
		return writeEntry{
			apply: singly(
				func(v int64) error { _, err := c.Insert(v); return err },
				func(v int64) (bool, error) { ok, _, err := c.Delete(v); return ok, err },
				func(a, b int64) (bool, error) { ok, _, err := c.Update(a, b); return ok, err },
			),
			content: func() []int64 { vals, _ := c.Select(extent.Lo, extent.Hi); return vals },
			stats:   c.DeltaStats,
		}
	}

	for _, strat := range []Strategy{Segmentation, Replication} {
		for _, shards := range []int{1, 4} {
			bare := func(t *testing.T) core.DeltaStrategy {
				one := func(_ int, rng domain.Range, vals []domain.Value) core.DeltaStrategy {
					if strat == Replication {
						return core.NewReplicator(rng, vals, 4, model.NewAPM(3<<10, 12<<10), nil)
					}
					return core.NewSegmenter(rng, vals, 4, model.NewAPM(3<<10, 12<<10), nil)
				}
				rng := domain.Range{Lo: extent.Lo, Hi: extent.Hi}
				if shards == 1 {
					return one(0, rng, base())
				}
				sc, err := shard.New(rng, base(), shards, one)
				if err != nil {
					t.Fatal(err)
				}
				return sc
			}
			facade := func(t *testing.T, dir string) *Column {
				// Manual merging: no merge-back (and so no checkpoint)
				// resets the counters under comparison.
				c, err := New(extent, base(), Options{
					Strategy: strat, Shards: shards, DeltaMaxBytes: -1, DeltaMaxRatio: -1,
					Durability:    Durability{Dir: dir},
					Observability: Observability{Disable: true},
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(c.Close)
				return c
			}
			entries := []struct {
				name  string
				build func(t *testing.T) writeEntry
			}{
				{"strategy-single-ops", func(t *testing.T) writeEntry {
					s := bare(t)
					e := overStrategy(s)
					e.place = writeScriptStats
					e.apply = singly(
						func(v int64) error { _, err := s.Insert(v); return err },
						func(v int64) (bool, error) { ok, _, err := s.Delete(v); return ok, err },
						func(a, b int64) (bool, error) { ok, _, err := s.Update(a, b); return ok, err },
					)
					return e
				}},
				{"strategy-ApplyOps", func(t *testing.T) writeEntry {
					s := bare(t)
					e := overStrategy(s)
					e.place = writeScriptBatchPlacement
					e.apply = func(ops []delta.Op) ([]bool, error) { res, _, err := s.ApplyOps(ops); return res, err }
					return e
				}},
				{"facade-memory", func(t *testing.T) writeEntry {
					e := overFacade(facade(t, ""))
					e.place = writeScriptStats
					return e
				}},
				{"facade-durable", func(t *testing.T) writeEntry {
					return overFacade(facade(t, t.TempDir()))
				}},
				{"facade-durable-reopened", func(t *testing.T) writeEntry {
					dir := t.TempDir()
					c := facade(t, dir)
					if _, err := overFacade(c).apply(ops); err != nil {
						t.Fatal(err)
					}
					c.Close()
					e := overFacade(facade(t, dir))
					e.apply = nil // the log already carries the script
					return e
				}},
			}
			for _, entry := range entries {
				t.Run(fmt.Sprintf("%v/shards%d/%s", strat, shards, entry.name), func(t *testing.T) {
					e := entry.build(t)
					if e.apply != nil {
						got, err := e.apply(ops)
						if err != nil {
							t.Fatal(err)
						}
						for i := range got {
							if got[i] != wantOK[i] {
								t.Errorf("op %d (%s): accepted = %v, want %v", i, writeScript[i].what, got[i], wantOK[i])
							}
						}
					}
					content := e.content()
					sort.Slice(content, func(i, j int) bool { return content[i] < content[j] })
					if !reflect.DeepEqual(content, writeScriptFinal) {
						t.Errorf("final content = %v\nwant %v", content, writeScriptFinal)
					}
					got, want := e.stats(), writeScriptStats[shards]
					counts := func(s delta.Stats) [4]int64 {
						return [4]int64{s.Inserts, s.Updates, s.Deletes, s.DeleteMisses}
					}
					if counts(got) != counts(want) {
						t.Errorf("DeltaStats{Inserts, Updates, Deletes, DeleteMisses} = %v, want %v", counts(got), counts(want))
					}
					if place, ok := e.place[shards]; ok && (got.Runs != place.Runs || got.Publications != place.Publications || got.Watermark != place.Watermark) {
						t.Errorf("placement: Runs/Publications/Watermark = %d/%d/%d, want %d/%d/%d",
							got.Runs, got.Publications, got.Watermark, place.Runs, place.Publications, place.Watermark)
					}
				})
			}
		}
	}
}
