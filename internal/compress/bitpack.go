package compress

import "slices"

// blockLen is the packing unit: 64 values at width w occupy exactly w
// words, so every block starts word-aligned and a walk's bit cursor
// crosses a block boundary with nothing carried.
const blockLen = 64

// packed is a fixed-width bit-packed array of n unsigned values, the
// storage substrate of the Dict codes and FOR deltas. Width 0 encodes an
// all-zero array in zero words. The words are padded to whole blocks, so
// a walk never needs a bounds case for the last one; the padding is not
// accounted (bytes sizes the n values only).
type packed struct {
	width uint // bits per value, 0..64
	n     int
	words []uint64
}

// newPacked allocates the packed array of n values at the given width,
// which its encoder fills straight in the block layout: it codes each
// block of input values into its unsigned codes (FOR deltas, Dict
// indexes), which must fit in width bits, in a stack buffer and hands
// it to put — so no full-length code array is ever built. The encoder
// owns the buffer and its coding loop: a buffer handed to a coding func
// value would escape to the heap.
func newPacked(n int, width uint) packed {
	p := packed{width: width, n: n}
	if width > 0 && n > 0 {
		p.words = make([]uint64, (n+blockLen-1)/blockLen*int(width))
	}
	return p
}

// put packs block b from the first n codes of buf; the rest of buf (the
// last block's padding) packs as zeros.
func (p *packed) put(b int, buf *[blockLen]uint64, n int) {
	clear(buf[n:])
	p.packBlock(b, buf)
}

// packBlock writes block b (values [64b, 64b+64)) from src — the walks'
// inverse: an accumulator takes each value at the running bit cursor and
// is stored whenever a word fills, carrying the straddling value's high
// bits into the next word.
func (p *packed) packBlock(b int, src *[blockLen]uint64) {
	w := p.width
	switch w {
	case 0:
		return
	case 64:
		copy(p.words[b*blockLen:], src[:])
		return
	}
	words := p.words[b*int(w) : (b+1)*int(w)]
	var acc uint64
	have, k := uint(0), 0 // bits held in acc; next word to store
	for _, v := range src {
		acc |= v << (have & 63)
		have += w
		if have >= 64 {
			words[k] = acc
			k++
			have -= 64
			acc = v >> ((w - have) & 63) // the high bits that did not fit
		}
	}
}

// The walks below read a packed array with one running bit cursor: a
// value lying wholly inside a word costs one mask and one shift, and only
// a value straddling two words joins the carried low bits with the next
// word's head — no per-value multiply, divide or word-index arithmetic.
// Each value is tested against "v - lo <= span" in registers the moment
// the cursor extracts it; no value is staged in a buffer before its
// test. (Shift
// counts are masked with &63, always a no-op here, so the compiler drops
// its oversized-shift fix-ups; k&63 does the same for bounds.) A walk
// visits the zero padding of the last block and, at width 0, no value at
// all; unwalked corrects for both.

// count returns how many of the n values v satisfy v-lo <= span.
func (p *packed) count(lo, span uint64) int64 {
	w := p.width
	mask := uint64(1)<<w - 1
	var n int64
	var carry uint64
	have := uint(0) // how many bits of the straddling value carry holds
	for _, word := range p.words {
		bits := uint(64)
		if have > 0 {
			if (carry|word<<(have&63))&mask-lo <= span {
				n++
			}
			word >>= (w - have) & 63
			bits -= w - have
		}
		for ; bits >= w; bits -= w {
			if word&mask-lo <= span {
				n++
			}
			word >>= w & 63
		}
		carry, have = word, bits
	}
	if -lo <= span {
		n += p.unwalked()
	}
	return n
}

// sum returns how many of the n values v satisfy v-lo <= span, and
// their (wrapping) sum.
func (p *packed) sum(lo, span uint64) (n, sum uint64) {
	w := p.width
	mask := uint64(1)<<w - 1
	var carry uint64
	have := uint(0)
	for _, word := range p.words {
		bits := uint(64)
		if have > 0 {
			if v := (carry | word<<(have&63)) & mask; v-lo <= span {
				n++
				sum += v
			}
			word >>= (w - have) & 63
			bits -= w - have
		}
		for ; bits >= w; bits -= w {
			if v := word & mask; v-lo <= span {
				n++
				sum += v
			}
			word >>= w & 63
		}
		carry, have = word, bits
	}
	if -lo <= span {
		n += uint64(p.unwalked()) // a zero adds nothing to the sum
	}
	return n, sum
}

// appendRange appends the values v with v-lo <= span to dst, in order,
// and returns dst; when none does, dst comes back untouched. A full
// block is selected straight into dst's spare capacity, the last,
// partial one through a stack array, so dst grows by no more than it
// keeps. decode then rewrites each block's kept values into the
// vector's domain (adds the frame, looks up the dictionary) while they
// are still in cache.
func (p *packed) appendRange(lo, span uint64, dst []int64, decode func(kept []int64)) []int64 {
	base := dst
	var tail [blockLen]int64
	for b := 0; b*blockLen < p.n; b++ {
		out := &tail
		if p.n-b*blockLen >= blockLen {
			dst = slices.Grow(dst, blockLen)
			out = (*[blockLen]int64)(dst[len(dst) : len(dst)+blockLen])
		}
		k := p.selectBlock(b, lo, span, out)
		if out == &tail {
			dst = append(dst, tail[:k]...)
		} else {
			dst = dst[:len(dst)+k]
		}
		decode(dst[len(dst)-k:])
	}
	if len(dst) == len(base) {
		return base // nothing qualified: dst comes back untouched
	}
	return dst
}

// selectBlock writes block b's values v with v-lo <= span to the front
// of out, in order, and returns how many it wrote: every value is stored
// at the output cursor, which advances only past qualifying ones. Its
// own small frame keeps the cursor, the word and the output index in
// registers.
func (p *packed) selectBlock(b int, lo, span uint64, out *[blockLen]int64) int {
	w := p.width
	rows := min(blockLen, p.n-b*blockLen)
	if w == 0 { // no words: every value is 0
		clear(out[:rows])
		if -lo <= span {
			return rows
		}
		return 0
	}
	mask := uint64(1)<<w - 1
	k := 0
	var carry uint64
	have := uint(0)
	for _, word := range p.words[b*int(w) : (b+1)*int(w)] {
		bits := uint(64)
		if have > 0 {
			v := (carry | word<<(have&63)) & mask
			out[k&63] = int64(v)
			if v-lo <= span {
				k++
			}
			word >>= (w - have) & 63
			bits -= w - have
		}
		for ; bits >= w; bits -= w {
			v := word & mask
			out[k&63] = int64(v)
			if v-lo <= span {
				k++
			}
			word >>= w & 63
		}
		carry, have = word, bits
	}
	if rows < blockLen && -lo <= span {
		k -= blockLen - rows // the padding zeros qualified too
	}
	return k
}

// unwalked is the row count minus the values a walk over every word
// visits: minus the last block's padding, or every row at width 0. The
// values it stands for are all zero.
func (p *packed) unwalked() int64 {
	if p.width == 0 {
		return int64(p.n)
	}
	return int64(p.n) - int64(len(p.words))*blockLen/int64(p.width)
}

// bytes returns the accounted physical size of the packed values.
func (p packed) bytes() int64 { return packedBytesFor(int64(p.n), p.width) }

// bitsFor returns the number of bits needed to represent v.
func bitsFor(v uint64) uint {
	n := uint(0)
	for v != 0 {
		n++
		v >>= 1
	}
	return n
}
