package core

// Pinned MVCC views. A query's visibility rule — pin a (base snapshot,
// delta watermark) pair at start, overlay the pinned delta onto the
// pinned base — is exposed here as a first-class object, so callers can
// hold a consistent read view across several operations (and tests can
// demonstrate that writes after the pin are invisible).

import (
	"selforg/internal/delta"
	"selforg/internal/domain"
	"selforg/internal/result"
	"selforg/internal/segment"
)

// View is a read-only MVCC view of a column, pinned at creation.
// Reads through it drive no adaptation, no statistics and no tracer
// events.
//
// Views are fully stable for both strategies: the pinned base — an
// immutable segment-list snapshot for segmentation, an immutable
// persistent-tree root for replication — plus the pinned delta snapshot
// stay consistent forever, across any number of concurrent writes,
// splits, drops, bulk loads and merge-backs. Pinning and reading a view
// never takes the writer lock.
type View struct {
	list  *segment.List // segmentation base (nil for replication views)
	root  *node         // replication base (nil for segmentation views)
	dsnap *delta.Snapshot
}

// Pin returns a stable MVCC view of the segmented column.
func (s *Segmenter) Pin() *View {
	list, dsnap := s.eng.Pin()
	return &View{list: list, dsnap: dsnap}
}

// Pin returns a stable MVCC view of the replicated column.
func (r *Replicator) Pin() *View {
	root, dsnap := r.eng.Pin()
	return &View{root: root, dsnap: dsnap}
}

// Bounds returns the pinned base's segment ranges in domain order: one
// per segment for segmentation, the whole extent for replication (its
// replicas overlap; only the root tiles the column).
func (v *View) Bounds() []domain.Range {
	if v.list == nil {
		return []domain.Range{v.root.seg.Rng}
	}
	out := make([]domain.Range, v.list.Len())
	for i := range out {
		out[i] = v.list.Seg(i).Rng
	}
	return out
}

// Watermark returns the version high-water mark pinned by the view:
// writes stamped above it are invisible.
func (v *View) Watermark() int64 { return v.dsnap.Watermark() }

// SelectRope returns the values matching q as of the pinned view (order
// unspecified) as a rope of per-segment chunks — fully covered segments
// whose storage form holds a materialized slice contribute zero-copy
// borrowed chunks.
func (v *View) SelectRope(q domain.Range) *result.Rope {
	rope, _ := v.read(q, sinkRows)
	return rope
}

// Count returns the cardinality of q as of the pinned view.
func (v *View) Count(q domain.Range) int64 {
	_, t := v.read(q, sinkCount)
	return t.n
}

// read is the view's one read pass: collect every pinned segment the
// query overlaps, then overlay the pinned delta.
func (v *View) read(q domain.Range, k sink) (*result.Rope, total) {
	rope := result.New()
	var t total
	if q.IsEmpty() {
		return rope, t
	}
	add := func(sg *segment.Segment) {
		p := collect(sg, q, k)
		if k == sinkRows {
			p.appendTo(rope)
		}
		t.add(p.total)
	}
	if v.list != nil {
		lo, hi := v.list.Overlapping(q)
		for i := lo; i < hi; i++ {
			add(v.list.Seg(i))
		}
	} else {
		for _, c := range getCover(v.root, q) {
			add(c.seg)
		}
	}
	var st QueryStats
	return overlayDelta(v.dsnap, q, k, rope, &t, &st), t
}
