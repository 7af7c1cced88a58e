package shard

import (
	"selforg/internal/core"
	"selforg/internal/domain"
	"selforg/internal/result"
	"selforg/internal/wal"
)

// View is a read-only MVCC view of a sharded column: one pinned view
// per shard, pinned in shard order under the router's cross-shard read
// lock. Each shard's (base snapshot, delta watermark) pair is exact and
// stays exact forever (per-shard pins are stable across splits, drops,
// bulk loads and merge-backs for both strategies). Single-shard writes
// may still land between two shard pins, but a cross-shard update —
// whose two halves mutate two shards under the lock's write half —
// is observed entirely or not at all, so a pinned scan never sees zero
// or two versions of an updated row.
// Reads route exactly like Column queries and drive no adaptation.
type View struct {
	ranges []domain.Range
	views  []*core.View
}

// Pin returns a read-only view of the column. The pin sweep holds xmu's
// read half so no cross-shard update is mid-flight across the per-shard
// pins.
func (c *Column) Pin() *View {
	c.xmu.RLock()
	defer c.xmu.RUnlock()
	v := &View{ranges: c.ranges, views: make([]*core.View, len(c.shards))}
	for i, s := range c.shards {
		v.views[i] = s.Pin()
	}
	return v
}

// SelectRope returns the values matching q as of the per-shard pins:
// the per-shard view results spliced chunk-wise in shard order, so a
// multi-shard view scan copies no value at the router layer.
func (v *View) SelectRope(q domain.Range) *result.Rope {
	rope := result.New()
	lo, hi := spanOf(v.ranges, q)
	for i := lo; i < hi; i++ {
		rope.Splice(v.views[i].SelectRope(q))
	}
	return rope
}

// Capture returns shard i's content as of its pin, segment by segment:
// one wal.Segment per range of the pinned base's Bounds, holding that
// range's values with the pinned delta overlaid.
func (v *View) Capture(i int) []wal.Segment {
	sv := v.views[i]
	bounds := sv.Bounds()
	out := make([]wal.Segment, len(bounds))
	for j, rng := range bounds {
		out[j] = wal.Segment{Rng: rng, Vals: sv.SelectRope(rng).Flatten()}
	}
	return out
}

// Count returns the cardinality of q as of the per-shard pins.
func (v *View) Count(q domain.Range) int64 {
	var n int64
	lo, hi := spanOf(v.ranges, q)
	for i := lo; i < hi; i++ {
		n += v.views[i].Count(q)
	}
	return n
}

// Watermark returns the highest per-shard pinned version. With the
// shared commit clock the per-shard marks are cuts of one column-wide
// clock, so the maximum is the column's pinned version.
func (v *View) Watermark() int64 {
	var w int64
	for _, sv := range v.views {
		if sv.Watermark() > w {
			w = sv.Watermark()
		}
	}
	return w
}
