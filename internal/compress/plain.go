package compress

import "slices"

// PlainVector is the uncompressed encoding: a raw int64 slice plus the
// accounted element width. It exists so that "compression on, encoding
// plain" costs exactly what the legacy layout costs, which lets the
// Advisor fall back to it whenever no encoding would pay off.
type PlainVector struct {
	vals     []int64
	elemSize int64
}

// NewPlain wraps vals (not copied) at the given accounted element width.
func NewPlain(vals []int64, elemSize int64) *PlainVector {
	if elemSize < 1 {
		elemSize = 8
	}
	return &PlainVector{vals: vals, elemSize: elemSize}
}

// Len implements Vector.
func (p *PlainVector) Len() int { return len(p.vals) }

// Encoding implements Vector.
func (p *PlainVector) Encoding() Encoding { return Plain }

// StoredBytes implements Vector: exactly the uncompressed accounting.
func (p *PlainVector) StoredBytes() int64 { return int64(len(p.vals)) * p.elemSize }

// Raw exposes the underlying slice without copying — the zero-copy
// borrow the rope result path takes for plain-encoded segments. Callers
// must treat the slice as read-only: it is (usually) a published
// segment's storage.
func (p *PlainVector) Raw() []int64 { return p.vals }

// AppendTo implements Vector.
func (p *PlainVector) AppendTo(dst []int64) []int64 { return append(dst, p.vals...) }

// SelectRange implements Vector with SelectPlain.
func (p *PlainVector) SelectRange(lo, hi int64, dst []int64) []int64 {
	return SelectPlain(p.vals, lo, hi, dst)
}

// CountRange implements Vector with CountPlain.
func (p *PlainVector) CountRange(lo, hi int64) int64 { return CountPlain(p.vals, lo, hi) }

// SumRange implements Vector with SumPlain.
func (p *PlainVector) SumRange(lo, hi int64) (int64, int64) { return SumPlain(p.vals, lo, hi) }

// SelectPlain appends the values of vals in [lo, hi], in order, to dst:
// one unsigned compare per value, v-lo <= hi-lo, written branch-free a
// block at a time as in DictVector.SelectRange. When nothing qualifies
// (an inverted range included) dst comes back untouched. It, CountPlain
// and SumPlain are the one Plain kernel set: PlainVector and raw segment
// payloads both run them.
func SelectPlain(vals []int64, lo, hi int64, dst []int64) []int64 {
	if lo > hi {
		return dst
	}
	span := uint64(hi) - uint64(lo)
	base := dst
	for len(vals) > 0 {
		blk := vals[:min(blockLen, len(vals))]
		vals = vals[len(blk):]
		dst = slices.Grow(dst, len(blk))
		out, k := dst[len(dst):len(dst)+len(blk)], 0
		for _, v := range blk {
			out[k] = v
			if uint64(v)-uint64(lo) <= span {
				k++
			}
		}
		dst = dst[:len(dst)+k]
	}
	if len(dst) == len(base) {
		return base // nothing qualified: dst comes back untouched
	}
	return dst
}

// SelectCap is the capacity a select destination needs to take est rows
// without regrowing: the branch-free select kernels grow dst by a whole
// block before they know how many of its rows qualify.
func SelectCap(est int64) int64 { return est + blockLen }

// CountPlain counts the values of vals in [lo, hi] with SelectPlain's
// compare.
func CountPlain(vals []int64, lo, hi int64) int64 {
	if lo > hi {
		return 0
	}
	span := uint64(hi) - uint64(lo)
	var n int64
	for _, v := range vals {
		if uint64(v)-uint64(lo) <= span {
			n++
		}
	}
	return n
}

// SumPlain returns the count and the (wrapping) sum of the values of
// vals in [lo, hi], with SelectPlain's compare.
func SumPlain(vals []int64, lo, hi int64) (n, sum int64) {
	if lo > hi {
		return 0, 0
	}
	span := uint64(hi) - uint64(lo)
	for _, v := range vals {
		if uint64(v)-uint64(lo) <= span {
			n++
			sum += v
		}
	}
	return n, sum
}

// MinMax implements Vector.
func (p *PlainVector) MinMax() (int64, int64, bool) {
	if len(p.vals) == 0 {
		return 0, 0, false
	}
	lo, hi := p.vals[0], p.vals[0]
	for _, v := range p.vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, true
}
