package compress

import "slices"

// FORVector is frame-of-reference encoding: the minimum value is the
// frame, every row stores its bit-packed delta from it. The frame and the
// maximum double as a min-max synopsis, so a range predicate that misses
// or swallows the segment is answered without unpacking a single delta —
// the pruning fast path the segment meta-index composes with.
type FORVector struct {
	ref      int64 // frame of reference: the minimum value
	max      int64
	deltas   packed // per-row unsigned delta from ref
	elemSize int64
}

// NewFOR encodes vals; the input is not retained.
func NewFOR(vals []int64, elemSize int64) *FORVector {
	if len(vals) == 0 {
		return newFOR(vals, 0, 0, elemSize)
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	return newFOR(vals, lo, hi, elemSize)
}

// newFOR encodes vals whose exact extremes are already known — the
// advisor's profile took them — so the values are read once, by the
// packer.
func newFOR(vals []int64, lo, hi, elemSize int64) *FORVector {
	if elemSize < 1 {
		elemSize = 8
	}
	f := &FORVector{elemSize: elemSize}
	if len(vals) == 0 {
		return f
	}
	f.ref, f.max = lo, hi
	// Deltas in uint64 arithmetic so the full int64 span cannot overflow.
	ref := uint64(lo)
	f.deltas = newPacked(len(vals), bitsFor(uint64(hi)-ref))
	var buf [blockLen]uint64
	for b := 0; b*blockLen < len(vals); b++ {
		src := vals[b*blockLen : min((b+1)*blockLen, len(vals))]
		for i, v := range src {
			buf[i] = uint64(v) - ref
		}
		f.deltas.put(b, &buf, len(src))
	}
	return f
}

// Len implements Vector.
func (f *FORVector) Len() int { return f.deltas.n }

// Encoding implements Vector.
func (f *FORVector) Encoding() Encoding { return FOR }

// forHeaderBytes is the accounted per-vector header (row count, delta
// width).
const forHeaderBytes = 8

// StoredBytes implements Vector: a vector header, the two frame values,
// and the packed deltas.
func (f *FORVector) StoredBytes() int64 {
	if f.deltas.n == 0 {
		return 0
	}
	return forHeaderBytes + 2*f.elemSize + f.deltas.bytes()
}

// AppendTo implements Vector.
func (f *FORVector) AppendTo(dst []int64) []int64 { return f.SelectRange(f.ref, f.max, dst) }

// deltaRange translates [lo, hi] into the delta domain once: a row
// qualifies iff its delta d satisfies d-dLo <= span, one unsigned
// compare. cover is -1 when no row can qualify (the frame misses the
// range, or the range is inverted), +1 when every row does (the range
// swallows the frame), 0 when the deltas must be compared.
func (f *FORVector) deltaRange(lo, hi int64) (dLo, span uint64, cover int) {
	if lo > hi || f.deltas.n == 0 || hi < f.ref || lo > f.max {
		return 0, 0, -1
	}
	if lo <= f.ref && hi >= f.max {
		return 0, 0, 1
	}
	dHi := uint64(f.max) - uint64(f.ref)
	if hi < f.max {
		dHi = uint64(hi) - uint64(f.ref)
	}
	if lo > f.ref {
		dLo = uint64(lo) - uint64(f.ref)
	}
	return dLo, dHi - dLo, 0
}

// SelectRange implements Vector with min-max pruning before any unpack,
// then one unsigned compare per delta as it is unpacked; the frame is
// added to the kept deltas only (two's-complement wrapping, so the full
// int64 span cannot overflow).
func (f *FORVector) SelectRange(lo, hi int64, dst []int64) []int64 {
	dLo, span, cover := f.deltaRange(lo, hi)
	if cover < 0 {
		return dst
	}
	if cover > 0 { // every row: one allocation for all of them
		dLo, span, dst = 0, ^uint64(0), slices.Grow(dst, f.deltas.n)
	}
	return f.deltas.appendRange(dLo, span, dst, func(kept []int64) {
		for i := range kept {
			kept[i] += f.ref
		}
	})
}

// CountRange implements Vector.
func (f *FORVector) CountRange(lo, hi int64) int64 {
	dLo, span, cover := f.deltaRange(lo, hi)
	switch cover {
	case -1:
		return 0
	case 1:
		return int64(f.deltas.n)
	}
	return f.deltas.count(dLo, span)
}

// SumRange implements Vector: the qualifying deltas are summed and the
// frame added once per row, n·ref + Σd (two's-complement wrapping, like
// any int64 sum).
func (f *FORVector) SumRange(lo, hi int64) (int64, int64) {
	dLo, span, cover := f.deltaRange(lo, hi)
	if cover < 0 {
		return 0, 0
	}
	if cover > 0 {
		dLo, span = 0, ^uint64(0)
	}
	n, sum := f.deltas.sum(dLo, span)
	return int64(n), int64(n*uint64(f.ref) + sum)
}

// MinMax implements Vector: free from the frame.
func (f *FORVector) MinMax() (int64, int64, bool) {
	if f.deltas.n == 0 {
		return 0, 0, false
	}
	return f.ref, f.max, true
}
