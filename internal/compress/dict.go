package compress

import (
	"slices"
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
	return NewPlain(d.appendRows(i, j, make([]int64, 0, j-i)), d.elemSize)
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
	return d.appendRows(0, d.codes.n, dst)
}

// appendRows appends the decoded values of rows [i, j) to dst.
func (d *DictVector) appendRows(i, j int, dst []int64) []int64 {
	dst = slices.Grow(dst, j-i)
	dec := d.codes.decode(i, j)
	for codes := dec.next(); codes != nil; codes = dec.next() {
		for _, c := range codes {
			dst = append(dst, d.dict[c])
		}
	}
	return dst
}

// codeRange maps [lo, hi] onto the half-open qualifying code interval
// [cLo, cHi); cLo >= cHi means no code qualifies (inverted bounds
// included).
func (d *DictVector) codeRange(lo, hi int64) (uint64, uint64) {
	cLo := uint64(searchInt64s(d.dict, lo))
	cHi := uint64(sort.Search(len(d.dict), func(i int) bool { return d.dict[i] > hi }))
	return cLo, cHi
}

// SelectRange implements Vector: binary-search the dictionary once, then
// filter rows by code interval — one unsigned compare per code. Each
// block is written branch-free: every row's value is stored at the
// output cursor, which advances only past qualifying ones.
func (d *DictVector) SelectRange(lo, hi int64, dst []int64) []int64 {
	cLo, cHi := d.codeRange(lo, hi)
	if cLo >= cHi {
		return dst
	}
	if cLo == 0 && cHi == uint64(len(d.dict)) {
		return d.AppendTo(dst)
	}
	span := cHi - cLo
	dec := d.codes.decode(0, d.codes.n)
	base := dst
	for codes := dec.next(); codes != nil; codes = dec.next() {
		dst = slices.Grow(dst, len(codes))
		out, k := dst[len(dst):len(dst)+len(codes)], 0
		for _, c := range codes {
			out[k] = d.dict[c]
			if c-cLo < span {
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

// CountRange implements Vector.
func (d *DictVector) CountRange(lo, hi int64) int64 {
	cLo, cHi := d.codeRange(lo, hi)
	if cLo >= cHi {
		return 0
	}
	if cLo == 0 && cHi == uint64(len(d.dict)) {
		return int64(d.codes.n)
	}
	span := cHi - cLo
	var n int64
	dec := d.codes.decode(0, d.codes.n)
	for codes := dec.next(); codes != nil; codes = dec.next() {
		for _, c := range codes {
			if c-cLo < span {
				n++
			}
		}
	}
	return n
}

// SumRange implements Vector: codes are compared, and only a qualifying
// code is looked up in the dictionary.
func (d *DictVector) SumRange(lo, hi int64) (int64, int64) {
	cLo, cHi := d.codeRange(lo, hi)
	if cLo >= cHi {
		return 0, 0
	}
	span := cHi - cLo
	var n, sum int64
	dec := d.codes.decode(0, d.codes.n)
	for codes := dec.next(); codes != nil; codes = dec.next() {
		for _, c := range codes {
			// Load before the test: a load under the branch keeps the
			// compiler from making the loop branch-free.
			x := d.dict[c]
			if c-cLo < span {
				n++
				sum += x
			}
		}
	}
	return n, sum
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
	span := cHi - cLo
	var sp spanner
	dec := d.codes.decode(0, d.codes.n)
	for row, codes := 0, dec.next(); codes != nil; codes = dec.next() {
		for _, c := range codes {
			sp.add(row, c-cLo < span, f)
			row++
		}
	}
	sp.done(d.codes.n, f)
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
