package compress

import (
	"math"
	"slices"
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
	// A direct-mapped cache of recently seen values sits in front of both
	// the sort and the dictionary search, so low-cardinality input sorts
	// only its distinct values (plus evicted repeats) and finds most codes
	// in one probe. Every slot starts out holding vals[0], which is
	// recorded first, so a slot never needs a validity bit.
	bits := min(dictCacheBits, bitsFor(uint64(len(vals))))
	seen := make([]int64, 1<<bits)
	for i := range seen {
		seen[i] = vals[0]
	}
	cand := []int64{vals[0]}
	for _, v := range vals {
		if h := cacheSlot(v, bits); seen[h] != v {
			seen[h] = v
			cand = append(cand, v)
		}
	}
	slices.Sort(cand)
	dict := slices.Clone(slices.Compact(cand)) // exact size: cand may be far longer
	d.dict = dict

	type entry struct{ v, code int64 }
	cache := make([]entry, 1<<bits)
	c0, _ := slices.BinarySearch(dict, vals[0])
	for i := range cache {
		cache[i] = entry{vals[0], int64(c0)}
	}
	d.codes = newPacked(len(vals), bitsFor(uint64(len(dict)-1)))
	var buf [blockLen]uint64
	for b := 0; b*blockLen < len(vals); b++ {
		src := vals[b*blockLen : min((b+1)*blockLen, len(vals))]
		for i, v := range src {
			e := &cache[cacheSlot(v, bits)]
			if e.v != v {
				c, _ := slices.BinarySearch(dict, v)
				*e = entry{v, int64(c)}
			}
			buf[i] = uint64(e.code)
		}
		d.codes.put(b, &buf, len(src))
	}
	return d
}

// dictCacheBits sizes NewDict's value cache: at most 4096 slots, fewer
// for shorter input.
const dictCacheBits = 12

// cacheSlot hashes v onto one of 2^bits cache slots (Fibonacci hashing).
func cacheSlot(v int64, bits uint) uint64 {
	return uint64(v) * 0x9E3779B97F4A7C15 >> (64 - bits)
}

// Len implements Vector.
func (d *DictVector) Len() int { return d.codes.n }

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

// AppendTo implements Vector.
func (d *DictVector) AppendTo(dst []int64) []int64 {
	return d.SelectRange(math.MinInt64, math.MaxInt64, dst)
}

// codeRange maps [lo, hi] onto the half-open qualifying code interval
// [cLo, cHi); cLo >= cHi means no code qualifies (inverted bounds
// included). A code c then qualifies iff c-cLo <= cHi-cLo-1.
func (d *DictVector) codeRange(lo, hi int64) (uint64, uint64) {
	cLo, _ := slices.BinarySearch(d.dict, lo)
	cHi, found := slices.BinarySearch(d.dict, hi)
	if found {
		cHi++
	}
	return uint64(cLo), uint64(cHi)
}

// SelectRange implements Vector: binary-search the dictionary once, then
// filter rows by code interval — one unsigned compare per code as it is
// unpacked — and look up only the kept codes.
func (d *DictVector) SelectRange(lo, hi int64, dst []int64) []int64 {
	cLo, cHi := d.codeRange(lo, hi)
	if cLo >= cHi {
		return dst
	}
	if cLo == 0 && cHi == uint64(len(d.dict)) { // every row: one allocation for all of them
		dst = slices.Grow(dst, d.codes.n)
	}
	return d.codes.appendRange(cLo, cHi-cLo-1, dst, func(kept []int64) {
		for i, c := range kept {
			kept[i] = d.dict[c]
		}
	})
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
	return d.codes.count(cLo, cHi-cLo-1)
}

// SumRange implements Vector: the codes are compared as they are
// unpacked, a block's qualifying ones selected into a stack array, and
// only those are looked up in the dictionary.
func (d *DictVector) SumRange(lo, hi int64) (n, sum int64) {
	cLo, cHi := d.codeRange(lo, hi)
	var kept [blockLen]int64
	for b := 0; cLo < cHi && b*blockLen < d.codes.n; b++ {
		k := d.codes.selectBlock(b, cLo, cHi-cLo-1, &kept)
		for _, c := range kept[:k] {
			sum += d.dict[c]
		}
		n += int64(k)
	}
	return n, sum
}

// MinMax implements Vector: free from the sorted dictionary.
func (d *DictVector) MinMax() (int64, int64, bool) {
	if len(d.dict) == 0 {
		return 0, 0, false
	}
	return d.dict[0], d.dict[len(d.dict)-1], true
}
