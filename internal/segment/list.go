package segment

import (
	"fmt"
	"sort"
	"strings"

	"selforg/internal/compress"
	"selforg/internal/domain"
)

// List is the sparse segment meta-index for a flat, adjacent,
// non-overlapping segmentation of one column (§3.1, §4). It is kept sorted
// by range so the optimizer can "pre-select and access only segments
// overlapping with the selection predicates" via binary search, without
// touching data.
//
// A List is an immutable snapshot: reorganization never mutates a
// published List in place. Replaced and Glued return fresh Lists sharing
// the untouched segments, so concurrent readers holding an older snapshot
// keep a consistent view while a writer publishes the successor (the
// RCU-style epoch scheme of the concurrency model — see ARCHITECTURE.md).
// Retired snapshots are reclaimed by the garbage collector once the last
// reader drops them.
type List struct {
	elemSize int64
	segs     []*Segment
}

// NewList creates a single-segment list covering extent and holding vals —
// the initial state S0 of Figure 3 ("the column is represented by a single
// segment"). elemSize is the accounting size of one element in bytes (the
// paper's simulation uses 4-byte values).
func NewList(extent domain.Range, vals []domain.Value, elemSize int64) *List {
	return NewListOf([]*Segment{NewMaterialized(extent, vals)}, elemSize)
}

// NewListOf creates a list over segs, which must be non-empty and tile
// one range in ascending adjacent order — a layout restored from a
// checkpoint. The list takes ownership of segs.
func NewListOf(segs []*Segment, elemSize int64) *List {
	if elemSize < 1 {
		panic("segment: elemSize must be positive")
	}
	if len(segs) == 0 {
		panic("segment: NewListOf with no segments")
	}
	for j := 1; j < len(segs); j++ {
		if !segs[j-1].Rng.Adjacent(segs[j].Rng) {
			panic(fmt.Sprintf("segment: NewListOf pieces %v and %v not adjacent", segs[j-1].Rng, segs[j].Rng))
		}
	}
	return &List{elemSize: elemSize, segs: segs}
}

// ElemSize returns the accounting size of one element in bytes.
func (l *List) ElemSize() int64 { return l.elemSize }

// Len returns the number of segments.
func (l *List) Len() int { return len(l.segs) }

// Seg returns the i-th segment in domain order.
func (l *List) Seg(i int) *Segment { return l.segs[i] }

// Extent returns the overall value range covered by the list.
func (l *List) Extent() domain.Range {
	return domain.Range{Lo: l.segs[0].Rng.Lo, Hi: l.segs[len(l.segs)-1].Rng.Hi}
}

// Overlapping returns the half-open index interval [lo, hi) of segments
// whose ranges overlap q. The lookup is the meta-index pre-selection of
// §3.1: it touches no data.
func (l *List) Overlapping(q domain.Range) (lo, hi int) {
	if q.IsEmpty() {
		return 0, 0
	}
	// First segment whose Hi >= q.Lo.
	lo = sort.Search(len(l.segs), func(i int) bool { return l.segs[i].Rng.Hi >= q.Lo })
	// First segment whose Lo > q.Hi.
	hi = sort.Search(len(l.segs), func(i int) bool { return l.segs[i].Rng.Lo > q.Hi })
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Replaced returns a new List in which the i-th segment is substituted by
// subs, which must tile exactly the replaced segment's range in ascending
// adjacent order. The receiver is left untouched, so snapshots published
// to concurrent readers stay consistent.
func (l *List) Replaced(i int, subs ...*Segment) *List {
	if len(subs) == 0 {
		panic("segment: Replaced with no substitutes")
	}
	old := l.segs[i]
	if subs[0].Rng.Lo != old.Rng.Lo || subs[len(subs)-1].Rng.Hi != old.Rng.Hi {
		panic(fmt.Sprintf("segment: Replaced of %v does not tile bounds (%v..%v)",
			old.Rng, subs[0].Rng, subs[len(subs)-1].Rng))
	}
	for j := 1; j < len(subs); j++ {
		if !subs[j-1].Rng.Adjacent(subs[j].Rng) {
			panic(fmt.Sprintf("segment: Replaced pieces %v and %v not adjacent",
				subs[j-1].Rng, subs[j].Rng))
		}
	}
	out := make([]*Segment, 0, len(l.segs)+len(subs)-1)
	out = append(out, l.segs[:i]...)
	out = append(out, subs...)
	out = append(out, l.segs[i+1:]...)
	return &List{elemSize: l.elemSize, segs: out}
}

// Glued returns a new List in which the adjacent segments [i, j]
// (inclusive) are merged into a single materialized segment; the receiver
// is left untouched. The paper lists gluing as the counterpart of
// splitting ("decides to split it into pieces, or glue segments together",
// §3.1) and flags merging strategies against GD fragmentation as follow-up
// work (§8); Glued is the primitive they build on.
func (l *List) Glued(i, j int) *List {
	if i < 0 || j >= len(l.segs) || i >= j {
		panic(fmt.Sprintf("segment: Glued(%d, %d) out of bounds", i, j))
	}
	total := int64(0)
	for k := i; k <= j; k++ {
		if l.segs[k].Virtual {
			panic("segment: Glued of a virtual segment")
		}
		total += l.segs[k].Count()
	}
	vals := make([]domain.Value, 0, total)
	for k := i; k <= j; k++ {
		vals = l.segs[k].AppendValues(vals)
	}
	merged := NewMaterialized(domain.Range{Lo: l.segs[i].Rng.Lo, Hi: l.segs[j].Rng.Hi}, vals)
	out := make([]*Segment, 0, len(l.segs)-(j-i))
	out = append(out, l.segs[:i]...)
	out = append(out, merged)
	out = append(out, l.segs[j+1:]...)
	return &List{elemSize: l.elemSize, segs: out}
}

// IndexOf locates sg in the list by identity: it binary-searches the
// segment whose range starts at sg.Rng.Lo and returns its index, or -1
// when that slot holds a different segment. Writers use it to revalidate
// reorganization intents computed on an older snapshot — if the segment
// was concurrently replaced, the intent is stale and must be dropped.
func (l *List) IndexOf(sg *Segment) int {
	i := sort.Search(len(l.segs), func(k int) bool { return l.segs[k].Rng.Lo >= sg.Rng.Lo })
	if i < len(l.segs) && l.segs[i] == sg {
		return i
	}
	return -1
}

// Encoded returns a copy of the list whose segments have been passed
// through the codec as identity-preserving copies (EncodedCopy). The
// receiver is untouched, so a writer can re-encode a published snapshot
// copy-on-write.
func (l *List) Encoded(c *compress.Codec) *List {
	segs := make([]*Segment, len(l.segs))
	for i, s := range l.segs {
		segs[i] = s.EncodedCopy(c)
	}
	return &List{elemSize: l.elemSize, segs: segs}
}

// TotalCount returns the total number of stored elements.
func (l *List) TotalCount() int64 {
	var n int64
	for _, s := range l.segs {
		n += s.Count()
	}
	return n
}

// TotalBytes returns the total accounted logical (uncompressed) storage
// of the list.
func (l *List) TotalBytes() domain.ByteSize {
	return domain.ByteSize(l.TotalCount() * l.elemSize)
}

// StoredBytes returns the total physical storage of the list: equal to
// TotalBytes for raw segments, smaller where segments are compressed.
func (l *List) StoredBytes() domain.ByteSize {
	var n domain.ByteSize
	for _, s := range l.segs {
		n += s.StoredBytes(l.elemSize)
	}
	return n
}

// SegmentBytes lists the per-segment logical sizes in bytes (Table 2
// statistics).
func (l *List) SegmentBytes() []float64 {
	out := make([]float64, len(l.segs))
	for i, s := range l.segs {
		out[i] = float64(s.Count() * l.elemSize)
	}
	return out
}

// Validate checks the structural invariants of the flat segmentation:
// segments are adjacent, non-overlapping, cover the extent exactly, none is
// virtual, and every value sits inside its segment's bounds.
func (l *List) Validate() error {
	if len(l.segs) == 0 {
		return fmt.Errorf("segment: empty list")
	}
	for i, s := range l.segs {
		if s.Virtual {
			return fmt.Errorf("segment %d: virtual segment in flat list", i)
		}
		if s.Rng.IsEmpty() {
			return fmt.Errorf("segment %d: empty range", i)
		}
		if i > 0 && !l.segs[i-1].Rng.Adjacent(s.Rng) {
			return fmt.Errorf("segment %d: %v not adjacent to %v", i, l.segs[i-1].Rng, s.Rng)
		}
		if s.Enc != nil {
			// Min-max containment is equivalent to per-value containment.
			if lo, hi, ok := s.Enc.MinMax(); ok && (!s.Rng.Contains(lo) || !s.Rng.Contains(hi)) {
				return fmt.Errorf("segment %d: encoded values [%d, %d] outside %v", i, lo, hi, s.Rng)
			}
			continue
		}
		for _, v := range s.Vals {
			if !s.Rng.Contains(v) {
				return fmt.Errorf("segment %d: value %d outside %v", i, v, s.Rng)
			}
		}
	}
	return nil
}

// Dump renders the layout compactly, e.g. "[0,49]#12 | [50,99]#8".
func (l *List) Dump() string {
	parts := make([]string, len(l.segs))
	for i, s := range l.segs {
		parts[i] = fmt.Sprintf("%v#%d", s.Rng, s.Count())
	}
	return strings.Join(parts, " | ")
}
