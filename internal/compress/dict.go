package compress

import (
	"sort"

	"selforg/internal/bat"
)

// DictVector is dictionary encoding: the distinct values, sorted
// ascending, plus one bit-packed dictionary code per row. Because the
// dictionary is sorted, a range predicate reduces to a code interval
// found by two binary searches — rows are then filtered with integer
// code comparisons, never by materializing values, and a predicate that
// misses or swallows the whole dictionary is answered from the
// dictionary alone.
type DictVector struct {
	dict     []int64 // sorted distinct values
	codes    packed  // per-row index into dict
	elemSize int64
}

// NewDict encodes vals; the input is not retained.
func NewDict(vals []int64, elemSize int64) *DictVector {
	if elemSize < 1 {
		elemSize = 8
	}
	d := &DictVector{elemSize: elemSize}
	if len(vals) == 0 {
		return d
	}
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	d.dict = sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != d.dict[len(d.dict)-1] {
			d.dict = append(d.dict, v)
		}
	}
	width := bitsFor(uint64(len(d.dict) - 1))
	codes := make([]uint64, len(vals))
	for i, v := range vals {
		codes[i] = uint64(searchInt64s(d.dict, v))
	}
	d.codes = packAll(codes, width)
	return d
}

// searchInt64s returns the first index at which a[i] >= v.
func searchInt64s(a []int64, v int64) int {
	return sort.Search(len(a), func(i int) bool { return a[i] >= v })
}

// Kind implements bat.Vector.
func (d *DictVector) Kind() bat.Kind { return bat.KLng }

// Len implements bat.Vector.
func (d *DictVector) Len() int { return d.codes.n }

// Get implements bat.Vector.
func (d *DictVector) Get(i int) bat.Value { return bat.Lng(d.At(i)) }

// Append implements bat.Vector by decaying to Plain (see Vector docs).
func (d *DictVector) Append(v bat.Value) bat.Vector {
	return NewPlain(append(d.AppendTo(nil), v.AsLng()), d.elemSize)
}

// Slice implements bat.Vector by decoding the window into Plain.
func (d *DictVector) Slice(i, j int) bat.Vector {
	out := make([]int64, 0, j-i)
	for k := i; k < j; k++ {
		out = append(out, d.At(k))
	}
	return NewPlain(out, d.elemSize)
}

// Empty implements bat.Vector.
func (d *DictVector) Empty() bat.Vector { return NewPlain(nil, d.elemSize) }

// Encoding implements Vector.
func (d *DictVector) Encoding() Encoding { return Dict }

// dictHeaderBytes is the accounted per-vector header (row count, code
// width, dictionary length).
const dictHeaderBytes = 16

// StoredBytes implements Vector: a vector header plus the dictionary at
// element width plus the packed codes.
func (d *DictVector) StoredBytes() int64 {
	if d.codes.n == 0 {
		return 0
	}
	return dictHeaderBytes + int64(len(d.dict))*d.elemSize + d.codes.bytes()
}

// At implements Vector.
func (d *DictVector) At(i int) int64 { return d.dict[d.codes.get(i)] }

// AppendTo implements Vector.
func (d *DictVector) AppendTo(dst []int64) []int64 {
	for i := 0; i < d.codes.n; i++ {
		dst = append(dst, d.dict[d.codes.get(i)])
	}
	return dst
}

// codeRange maps [lo, hi] onto the half-open qualifying code interval
// [cLo, cHi).
func (d *DictVector) codeRange(lo, hi int64) (uint64, uint64) {
	cLo := uint64(searchInt64s(d.dict, lo))
	cHi := uint64(sort.Search(len(d.dict), func(i int) bool { return d.dict[i] > hi }))
	return cLo, cHi
}

// SelectRange implements Vector: binary-search the dictionary once, then
// filter rows by code interval.
func (d *DictVector) SelectRange(lo, hi int64, dst []int64) []int64 {
	cLo, cHi := d.codeRange(lo, hi)
	if cLo >= cHi {
		return dst
	}
	if cLo == 0 && cHi == uint64(len(d.dict)) {
		return d.AppendTo(dst)
	}
	for i := 0; i < d.codes.n; i++ {
		if c := d.codes.get(i); c >= cLo && c < cHi {
			dst = append(dst, d.dict[c])
		}
	}
	return dst
}

// CountRange implements Vector.
func (d *DictVector) CountRange(lo, hi int64) int64 {
	cLo, cHi := d.codeRange(lo, hi)
	if cLo >= cHi {
		return 0
	}
	if cLo == 0 && cHi == uint64(len(d.dict)) {
		return int64(d.codes.n)
	}
	var n int64
	for i := 0; i < d.codes.n; i++ {
		if c := d.codes.get(i); c >= cLo && c < cHi {
			n++
		}
	}
	return n
}

// Spans implements Vector.
func (d *DictVector) Spans(lo, hi int64, f func(start, end int)) {
	cLo, cHi := d.codeRange(lo, hi)
	if cLo >= cHi {
		return
	}
	if cLo == 0 && cHi == uint64(len(d.dict)) {
		if d.codes.n > 0 {
			f(0, d.codes.n)
		}
		return
	}
	start := -1
	for i := 0; i < d.codes.n; i++ {
		c := d.codes.get(i)
		if c >= cLo && c < cHi {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			f(start, i)
			start = -1
		}
	}
	if start >= 0 {
		f(start, d.codes.n)
	}
}

// RangeSpans implements bat.RangeSpanner.
func (d *DictVector) RangeSpans(lo, hi bat.Value, f func(start, end int)) {
	d.Spans(lo.AsLng(), hi.AsLng(), f)
}

// MinMax implements Vector: free from the sorted dictionary.
func (d *DictVector) MinMax() (int64, int64, bool) {
	if len(d.dict) == 0 {
		return 0, 0, false
	}
	return d.dict[0], d.dict[len(d.dict)-1], true
}
