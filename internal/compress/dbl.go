package compress

import (
	"math"

	"selforg/internal/bat"
)

// Float columns (the prototype's SkyServer ra tail is a dbl vector)
// compress through an order-preserving bijection between float64 and
// int64: the IEEE-754 bit pattern, sign-folded so that integer order
// equals float order. Every int64 encoding — RLE run skipping, the sorted
// dictionary's code intervals, FOR's min-max frame — then works on dbl
// data unchanged, including the range fast paths, because the mapping is
// monotone: mapping the predicate bounds is equivalent to mapping every
// value.

const dblSignBit = uint64(1) << 63

// mapDbl maps f onto an int64 whose order matches float64 order
// (-Inf < ... < 0 < ... < +Inf). Negative zero is normalized to +0.0
// first: float comparison treats the two as equal, so they must map to
// the same integer or a predicate bound of 0.0 would wrongly exclude
// -0.0 rows (decoded -0.0 therefore comes back as the numerically equal
// +0.0). NaN values map outside the ±Inf interval, so any ordered
// predicate excludes them — matching float comparison, where NaN matches
// nothing. A NaN *bound* is screened by emptyRange before mapping.
func mapDbl(f float64) int64 {
	if f == 0 {
		f = 0 // collapse -0.0 onto +0.0
	}
	u := math.Float64bits(f)
	if u&dblSignBit != 0 {
		u = ^u
	} else {
		u |= dblSignBit
	}
	return int64(u ^ dblSignBit)
}

// unmapDbl inverts mapDbl.
func unmapDbl(x int64) float64 {
	u := uint64(x) ^ dblSignBit
	if u&dblSignBit != 0 {
		u ^= dblSignBit
	} else {
		u = ^u
	}
	return math.Float64frombits(u)
}

// DblVector adapts an int64 encoding to a dbl (float64) vector via the
// order-preserving mapping. It implements bat.Vector with Kind KDbl, so a
// compressed dbl column drops into a BAT tail transparently.
type DblVector struct {
	inner Vector
}

// EncodeDbls compresses vals with the given encoding (the input is not
// retained).
func EncodeDbls(vals []float64, e Encoding, elemSize int64) *DblVector {
	mapped := make([]int64, len(vals))
	for i, f := range vals {
		mapped[i] = mapDbl(f)
	}
	return &DblVector{inner: Encode(mapped, e, elemSize)}
}

// Kind implements bat.Vector.
func (d *DblVector) Kind() bat.Kind { return bat.KDbl }

// Len implements bat.Vector.
func (d *DblVector) Len() int { return d.inner.Len() }

// Get implements bat.Vector.
func (d *DblVector) Get(i int) bat.Value { return bat.Dbl(d.AtDbl(i)) }

// AtDbl returns the i-th value without bat.Value boxing.
func (d *DblVector) AtDbl(i int) float64 { return unmapDbl(d.inner.At(i)) }

// Append implements bat.Vector by decaying to a plain dbl vector.
func (d *DblVector) Append(v bat.Value) bat.Vector {
	return bat.NewDbls(append(d.AppendToDbl(nil), v.AsDbl()))
}

// Slice implements bat.Vector by decoding the window into a plain dbl
// vector (every encoding's Slice decodes into a PlainVector).
func (d *DblVector) Slice(i, j int) bat.Vector {
	win := d.inner.Slice(i, j).(*PlainVector).Raw()
	return bat.NewDbls(appendUnmapped(make([]float64, 0, len(win)), win))
}

// Empty implements bat.Vector.
func (d *DblVector) Empty() bat.Vector { return bat.NewDbls(nil) }

// Encoding returns the underlying storage format.
func (d *DblVector) Encoding() Encoding { return d.inner.Encoding() }

// StoredBytes returns the accounted physical size of the encoded form.
func (d *DblVector) StoredBytes() int64 { return d.inner.StoredBytes() }

// AppendToDbl appends every value, in order, to dst, decoding through
// the inner encoding's block kernel.
func (d *DblVector) AppendToDbl(dst []float64) []float64 {
	return appendUnmapped(dst, d.inner.AppendTo(make([]int64, 0, d.inner.Len())))
}

// appendUnmapped appends the float of every mapped value in src to dst.
func appendUnmapped(dst []float64, src []int64) []float64 {
	for _, x := range src {
		dst = append(dst, unmapDbl(x))
	}
	return dst
}

// emptyRange reports whether no float satisfies lo <= f <= hi: the bounds
// are inverted, or either is NaN (NaN compares false with everything, so
// it bounds nothing — yet mapDbl sends it outside ±Inf, where it would
// read as an open end).
func emptyRange(lo, hi float64) bool { return !(lo <= hi) }

// CountRangeDbl counts the values lying in [lo, hi].
func (d *DblVector) CountRangeDbl(lo, hi float64) int64 {
	if emptyRange(lo, hi) {
		return 0
	}
	return d.inner.CountRange(mapDbl(lo), mapDbl(hi))
}

// RangeSpans implements bat.RangeSpanner: the row spans whose values lie
// in [lo, hi], computed on the compressed form.
func (d *DblVector) RangeSpans(lo, hi bat.Value, f func(start, end int)) {
	l, h := lo.AsDbl(), hi.AsDbl()
	if emptyRange(l, h) {
		return
	}
	d.inner.Spans(mapDbl(l), mapDbl(h), f)
}
