package server

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// The decimal kernel: every integer the wire writes, byte for byte what
// strconv.AppendInt(dst, v, 10) writes, but eight digits at a time
// inside one uint64 (SWAR) and stored with one 8-byte write, instead of
// one division per digit into a stack buffer that is then copied out.

// maxIntLen bounds the bytes appendInts writes per value, its 8-byte
// stores included: ",-9223372036854775808" is 21 bytes, and no store
// reaches past the longest value's last digit.
const maxIntLen = 21

// pow10 holds the thresholds digits compares against: 10^t, except 0 at
// t = 0 so that 0 has one digit. Sixteen entries let t&15 index it
// without a bounds check.
var pow10 = [16]uint64{0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// digits returns the decimal length of x < 1e8. (Len64(x)·1233)>>12 is
// ⌊log10 x⌋ or one more; one comparison with 10^t settles which.
func digits(x uint64) int {
	t := uint(bits.Len64(x)) * 1233 >> 12
	d := int(t)
	if x >= pow10[t&15] {
		d++
	}
	return d
}

// ascii8 returns x < 1e8 as eight ASCII digits, leading zeros included,
// the most significant in the lowest byte (little-endian store order).
// It splits 4+4 digits, then 2+2 and 1+1 in parallel lanes of one word,
// each split a multiply-shift division that is exact in its lane
// (·109951163>>40 is /10000 below 1e8, ·5243>>19 is /100 below 43 699,
// ·103>>10 is /10 below 179), and y<<s − q·(m<<s − 1) places quotient
// q in the low half of each lane and the remainder y − q·m above it.
func ascii8(x uint64) uint64 {
	q := x * 109951163 >> 40
	y := x<<32 - q*(10000<<32-1)
	q = (y * 5243 >> 19) & 0x0000007f_0000007f
	y = y<<16 - q*(100<<16-1)
	q = (y * 103 >> 10) & 0x000f_000f_000f_000f
	return y<<8 - q*(10<<8-1) + 0x30303030_30303030
}

// putHead stores x < 1e8 without leading zeros at b and returns its
// length; the 8-byte store may write past it.
func putHead(b []byte, x uint64) int {
	d := digits(x)
	binary.LittleEndian.PutUint64(b, ascii8(x)>>(uint(8-d)*8&63))
	return d
}

// putInt writes v in decimal at b (which must hold 20 bytes) and
// returns its length. Magnitudes of 9 to 16 digits take a head and one
// full group, 17 to 19 digits a head and two; the magnitude is taken as
// a uint64, so math.MinInt64 needs no case of its own.
func putInt(b []byte, v int64) int {
	u, n := uint64(v), 0
	if v < 0 {
		b[0], u, n = '-', -u, 1
	}
	if u < 1e8 {
		return n + putHead(b[n:], u)
	}
	if u >= 1e16 {
		n += putHead(b[n:], u/1e16)
		u %= 1e16
		binary.LittleEndian.PutUint64(b[n:], ascii8(u/1e8))
		n += 8
	} else {
		n += putHead(b[n:], u/1e8)
	}
	binary.LittleEndian.PutUint64(b[n:], ascii8(u%1e8))
	return n + 8
}

// appendInt appends v as strconv.AppendInt(dst, v, 10) does.
func appendInt(dst []byte, v int64) []byte {
	n := len(dst)
	dst = slices.Grow(dst, maxIntLen)
	return dst[:n+putInt(dst[n:n+maxIntLen], v)]
}

// pairs holds "00" to "99", the two-digit heads of 9- and 10-digit
// values.
const pairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// appendInts appends ",v" for every v of vals, growing dst at most once
// (not at all when it has maxIntLen bytes per value to spare). Two
// shapes stay in the loop: a value in [0, 1e8) stores the comma and up
// to seven digits with one 8-byte store and its eighth digit with a byte
// store that a shorter value leaves for the next one to overwrite; a
// value in [1e8, 1e10), any 30-bit row, writes its one or two head
// digits from pairs and its last eight as one group. Negative and
// longer values take putInt.
func appendInts(dst []byte, vals []int64) []byte {
	n := len(dst)
	dst = slices.Grow(dst, maxIntLen*len(vals))
	b := dst[n:cap(dst)]
	p := 0
	for _, v := range vals {
		u := uint64(v)
		o := (*[maxIntLen]byte)(b[p : p+maxIntLen])
		switch {
		case u < 1e8:
			d, w := digits(u), ascii8(u)
			binary.LittleEndian.PutUint64(o[:8], ','|w>>(uint(8-d)*8&63)<<8)
			o[8] = byte(w >> 56)
			p += 1 + d
		case u < 1e10:
			head := u / 1e8
			d := 1 + int((head+246)>>8) // 2 from head 10 on
			o[0], o[1], o[2] = ',', pairs[2*head+2-uint64(d)], pairs[2*head+1]
			binary.LittleEndian.PutUint64(o[1+d:], ascii8(u-head*1e8))
			p += 9 + d
		default:
			o[0] = ','
			p += 1 + putInt(o[1:], v)
		}
	}
	return dst[:n+p]
}
