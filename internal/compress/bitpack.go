package compress

// blockLen is the block kernel's unit: 64 values at width w occupy
// exactly w words, so every block starts word-aligned and decodes
// without touching its neighbours.
const blockLen = 64

// packed is a fixed-width bit-packed array of n unsigned values, the
// storage substrate of the Dict codes and FOR deltas. Width 0 encodes an
// all-zero array in zero words. The words are padded to whole blocks, so
// the block kernel never needs a bounds case for the last one; the
// padding is not accounted (bytes sizes the n values only).
type packed struct {
	width uint // bits per value, 0..64
	n     int
	words []uint64
}

// pack builds the packed array of vals at the given width straight in the
// block layout: code translates one block of input values into their
// unsigned codes (FOR deltas, Dict indexes), which must fit in width
// bits, and packBlock lays the block's words down — so no full-length
// code array is ever built.
func pack(vals []int64, width uint, code func(dst []uint64, src []int64)) packed {
	p := packed{width: width, n: len(vals)}
	if width == 0 || len(vals) == 0 {
		return p
	}
	p.words = make([]uint64, (len(vals)+blockLen-1)/blockLen*int(width))
	var buf [blockLen]uint64
	for b := 0; b*blockLen < len(vals); b++ {
		src := vals[b*blockLen : min((b+1)*blockLen, len(vals))]
		code(buf[:len(src)], src)
		clear(buf[len(src):]) // the last block's padding packs as zeros
		p.packBlock(b, &buf)
	}
	return p
}

// packBlock writes block b (values [64b, 64b+64)) from src — unpack's
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

// unpack decodes block b (values [64b, 64b+64)) into dst with a running
// bit cursor that walks the block's w words once: every value lying
// wholly inside a word costs one mask and one shift, and only a value
// straddling two words joins the carried low bits with the next word's
// head — no per-value multiply, divide or word-index arithmetic. (The
// shift counts are masked with &63, always a no-op here, so the compiler
// drops its oversized-shift fix-ups; i&63 does the same for bounds.)
func (p *packed) unpack(b int, dst *[blockLen]uint64) {
	w := p.width
	switch w {
	case 0:
		*dst = [blockLen]uint64{}
		return
	case 64:
		copy(dst[:], p.words[b*blockLen:])
		return
	}
	mask := uint64(1)<<w - 1
	var carry uint64 // low bits of the value straddling into this word
	have := uint(0)  // how many of its bits carry holds
	i := 0
	for _, word := range p.words[b*int(w) : (b+1)*int(w)] {
		bits := uint(64)
		if have > 0 {
			dst[i&63] = (carry | word<<(have&63)) & mask
			i++
			word >>= (w - have) & 63
			bits -= w - have
		}
		for ; bits >= w; bits -= w {
			dst[i&63] = word & mask
			word >>= w & 63
			i++
		}
		carry, have = word, bits
	}
}

// decoder walks a packed array one block at a time — the block kernel
// every Dict and FOR scan loop runs on.
type decoder struct {
	p   *packed
	b   int // the next block to decode
	buf [blockLen]uint64
}

// decode returns a decoder over every row.
func (p *packed) decode() *decoder { return &decoder{p: p} }

// next decodes the next block and returns its values, or nil once every
// row is decoded. The slice is valid until the following call.
func (d *decoder) next() []uint64 {
	start := d.b * blockLen
	if start >= d.p.n {
		return nil
	}
	d.p.unpack(d.b, &d.buf)
	d.b++
	return d.buf[:min(blockLen, d.p.n-start)]
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
