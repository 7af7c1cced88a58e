package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refKernels answers every range kernel by the plain two-compare loop —
// the reference each encoding's compressed-form kernel must match.
type refKernels struct{ vals []int64 }

func (r refKernels) match(v, lo, hi int64) bool { return v >= lo && v <= hi }

func (r refKernels) sel(lo, hi int64) []int64 {
	var out []int64
	for _, v := range r.vals {
		if r.match(v, lo, hi) {
			out = append(out, v)
		}
	}
	return out
}

func (r refKernels) sum(lo, hi int64) (n, sum int64) {
	for _, v := range r.vals {
		if r.match(v, lo, hi) {
			n++
			sum += v
		}
	}
	return n, sum
}

// checkKernels encodes vals every way and holds every kernel to the
// reference on every range in qs.
func checkKernels(t *testing.T, name string, vals []int64, qs [][2]int64) {
	t.Helper()
	ref := refKernels{vals}
	for _, e := range Encodings {
		v := Encode(append([]int64(nil), vals...), e, 4)
		if got := v.AppendTo(nil); len(vals) > 0 && !reflect.DeepEqual(got, vals) {
			t.Fatalf("%s/%v: AppendTo differs from the input", name, e)
		}
		for _, q := range qs {
			lo, hi := q[0], q[1]
			want := ref.sel(lo, hi)
			if got := v.SelectRange(lo, hi, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%v [%d,%d]: SelectRange = %v, want %v", name, e, lo, hi, got, want)
			}
			if got := v.SelectRange(lo, hi, []int64{7}); !reflect.DeepEqual(got, append([]int64{7}, want...)) {
				t.Fatalf("%s/%v [%d,%d]: SelectRange onto a non-empty dst lost it", name, e, lo, hi)
			}
			if got := v.CountRange(lo, hi); got != int64(len(want)) {
				t.Fatalf("%s/%v [%d,%d]: CountRange = %d, want %d", name, e, lo, hi, got, len(want))
			}
			wn, ws := ref.sum(lo, hi)
			if n, s := v.SumRange(lo, hi); n != wn || s != ws {
				t.Fatalf("%s/%v [%d,%d]: SumRange = (%d, %d), want (%d, %d)", name, e, lo, hi, n, s, wn, ws)
			}
		}
	}
}

// kernelRanges derives the range predicates every kernel must answer on
// vals: empty, inverted, single point, exactly the frame, beyond both
// ends, and halves.
func kernelRanges(vals []int64) [][2]int64 {
	qs := [][2]int64{{10, 5}, {math.MinInt64, math.MaxInt64}, {math.MaxInt64, math.MinInt64}, {0, 0}}
	if len(vals) == 0 {
		return qs
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	mid := lo/2 + hi/2
	qs = append(qs,
		[2]int64{lo, hi}, [2]int64{hi, lo}, [2]int64{lo, mid}, [2]int64{mid, hi},
		[2]int64{mid + 1, mid}, [2]int64{vals[len(vals)/2], vals[len(vals)/2]},
		[2]int64{lo/2 + mid/2, mid/2 + hi/2})
	if hi < math.MaxInt64 {
		qs = append(qs, [2]int64{hi + 1, math.MaxInt64}, [2]int64{lo, hi + 1})
	}
	if lo > math.MinInt64 {
		qs = append(qs, [2]int64{math.MinInt64, lo - 1}, [2]int64{lo - 1, hi})
	}
	return qs
}

// TestCodecKernelsMatchPlain holds CountRange, SelectRange, SumRange and
// AppendTo of every encoding to the plain reference loop, across every
// bit-packing width 0–64, row counts around the 64-value block, and
// frames pinned at both ends of int64.
func TestCodecKernelsMatchPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for w := uint(0); w <= 64; w++ {
		mask := uint64(1)<<w - 1
		if w == 64 {
			mask = math.MaxUint64
		}
		for _, n := range []int{0, 1, 63, 64, 65, 129, 4097} {
			bases := map[string]uint64{
				"min": 1 << 63, // MinInt64
				"max": uint64(math.MaxInt64) - mask,
				"neg": uint64(math.MaxUint64) - 999, // crosses zero from w = 10
			}
			for bname, base := range bases {
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = int64(base + rng.Uint64()&mask)
				}
				if n >= 2 {
					// Pin the frame: the width is exactly w.
					vals[0], vals[n-1] = int64(base), int64(base+mask)
				}
				checkKernels(t, fmt.Sprintf("w%d/n%d/%s", w, n, bname), vals, kernelRanges(vals))
			}
		}
	}
	// Low-cardinality data: Dict's code widths, with runs for RLE.
	for _, card := range []int{1, 2, 3, 17, 300} {
		vals := make([]int64, 4097)
		for i := range vals {
			vals[i] = int64(rng.Intn(card))*977 - 5000
			if i > 0 && rng.Intn(4) == 0 {
				vals[i] = vals[i-1]
			}
		}
		checkKernels(t, fmt.Sprintf("card%d", card), vals, kernelRanges(vals))
	}
}

// TestPackedWalksMatchPackAll holds every fused walk — count, sum and
// appendRange (selectBlock) — to a plain loop over the input of the
// reference packer, at every width and for row counts around the block.
// Three of the predicates admit code 0, so a walk that counts, sums or
// emits the last block's zero padding (or drops width 0's rows) fails.
func TestPackedWalksMatchPackAll(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for w := uint(0); w <= 64; w++ {
		mask := uint64(math.MaxUint64)
		if w < 64 {
			mask = 1<<w - 1
		}
		for _, n := range []int{0, 1, 63, 64, 65, 200} {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64() & mask
			}
			p := packAll(vals, w)
			if got, want := p.bytes(), packedBytesFor(int64(n), w); got != want {
				t.Fatalf("w%d n%d: bytes = %d, want %d", w, n, got, want)
			}
			preds := [][2]uint64{
				{0, math.MaxUint64}, // every value
				{0, mask / 3},       // from 0 up
				{mask / 2, mask / 4},
				{math.MaxUint64, 1 + mask/2}, // wraps round to admit 0
				{1, 0},                       // only 1: the zeros must not count
			}
			for _, pr := range preds {
				lo, span := pr[0], pr[1]
				var wantN, wantSum uint64
				var wantSel []int64
				for _, v := range vals {
					if v-lo <= span {
						wantN++
						wantSum += v
						wantSel = append(wantSel, int64(v))
					}
				}
				name := fmt.Sprintf("w%d n%d [%d +%d]", w, n, lo, span)
				if got := p.count(lo, span); got != int64(wantN) {
					t.Fatalf("%s: count = %d, want %d", name, got, wantN)
				}
				if gn, gs := p.sum(lo, span); gn != wantN || gs != wantSum {
					t.Fatalf("%s: sum = (%d, %d), want (%d, %d)", name, gn, gs, wantN, wantSum)
				}
				got := p.appendRange(lo, span, []int64{-7}, func([]int64) {})
				if !reflect.DeepEqual(got, append([]int64{-7}, wantSel...)) {
					t.Fatalf("%s: appendRange = %v, want %v", name, got[1:], wantSel)
				}
			}
		}
	}
}

// raceEnabled is set by race_test.go under -race, which changes what
// allocates.
var raceEnabled bool

// TestKernelsDoNotAllocate pins every encoding's CountRange and SumRange
// at zero allocations, at widths 1, 15 and 64, and SelectRange at zero
// once dst holds SelectCap of the result.
func TestKernelsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	rng := rand.New(rand.NewSource(65))
	for _, w := range []uint{1, 15, 64} {
		vals := make([]int64, 1000)
		for i := range vals {
			vals[i] = int64(rng.Uint64() >> (64 - w))
		}
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo, hi = min(lo, v), max(hi, v)
		}
		qlo, qhi := lo/2+hi/4, hi/2+hi/4 // inside the frame: every kernel scans
		for _, e := range Encodings {
			v := Encode(append([]int64(nil), vals...), e, 4)
			dst := make([]int64, 0, SelectCap(int64(len(vals))))
			for op, f := range map[string]func(){
				"CountRange":  func() { v.CountRange(qlo, qhi) },
				"SumRange":    func() { v.SumRange(qlo, qhi) },
				"SelectRange": func() { v.SelectRange(qlo, qhi, dst[:0]) },
			} {
				if got := testing.AllocsPerRun(20, f); got != 0 {
					t.Errorf("w%d/%v: %s allocates %.0f times, want 0", w, e, op, got)
				}
			}
		}
	}
}

// TestEncodersAllocations pins what NewFOR and NewDict allocate: FOR
// its vector and packed words; Dict besides those its value cache, its
// candidate list (which grows by appending), the dictionary and its code
// cache. The block buffer the codes are staged in stays on the stack.
func TestEncodersAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i*7919%16) * 1000 // 16 distinct values, 4-bit codes
	}
	for _, tc := range []struct {
		name string
		f    func()
		want float64
	}{
		{"NewFOR", func() { NewFOR(vals, 8) }, 2},
		{"NewDict", func() { NewDict(vals, 8) }, 9},
	} {
		if got := testing.AllocsPerRun(20, tc.f); got != tc.want {
			t.Errorf("%s allocates %.0f times, want %.0f", tc.name, got, tc.want)
		}
	}
}

// packAll is the reference packer: every value written at its own bit
// offset, one at a time. Values must fit in width bits.
func packAll(vals []uint64, width uint) packed {
	p := packed{width: width, n: len(vals)}
	if width == 0 || len(vals) == 0 {
		return p
	}
	p.words = make([]uint64, (len(vals)+blockLen-1)/blockLen*int(width))
	for i, v := range vals {
		off := uint(i) * width
		w, s := off/64, off%64
		p.words[w] |= v << s
		if s+width > 64 {
			p.words[w+1] |= v >> (64 - s)
		}
	}
	return p
}

// TestBlockPackerMatchesPackAll holds the block packer (put/packBlock)
// to the reference packer word for word — padding included — across
// every width and row counts around the block.
func TestBlockPackerMatchesPackAll(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for w := uint(0); w <= 64; w++ {
		for _, n := range []int{0, 1, 63, 64, 65, 4097} {
			codes := make([]uint64, n)
			vals := make([]int64, n)
			for i := range codes {
				codes[i] = rng.Uint64()
				if w < 64 {
					codes[i] &= 1<<w - 1
				}
				vals[i] = int64(codes[i])
			}
			want := packAll(codes, w)
			got := packCodes(vals, w)
			if got.width != want.width || got.n != want.n || !reflect.DeepEqual(got.words, want.words) {
				t.Fatalf("w%d n%d: block packer differs from packAll", w, n)
			}
		}
	}
}

// TestEncodersMatchReference holds NewDict and NewFOR — and the codec's
// FOR, framed by the advisor's profile — to the straightforward builds
// they replace: a sorted, deduplicated dictionary with per-row codes
// found by search, and per-row deltas from the minimum, both packed value
// by value. The vectors must be identical, field for field.
func TestEncodersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, card := range []int64{1, 2, 64, 5000, 1 << 40} {
		for _, n := range []int{1, 63, 64, 65, 4097, 20000} {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = rng.Int63n(card)*977 - 1<<20
			}
			sorted := slices.Clone(vals)
			slices.Sort(sorted)
			dict := slices.Compact(sorted)
			codes, deltas := make([]uint64, n), make([]uint64, n)
			for i, v := range vals {
				c, _ := slices.BinarySearch(dict, v)
				codes[i] = uint64(c)
				deltas[i] = uint64(v) - uint64(dict[0])
			}
			wantDict := &DictVector{dict: dict, codes: packAll(codes, bitsFor(uint64(len(dict)-1))), elemSize: 4}
			if got := NewDict(vals, 4); !reflect.DeepEqual(got, wantDict) {
				t.Fatalf("card %d n %d: NewDict differs from the sorted reference", card, n)
			}
			span := uint64(dict[len(dict)-1]) - uint64(dict[0])
			wantFOR := &FORVector{ref: dict[0], max: dict[len(dict)-1], deltas: packAll(deltas, bitsFor(span)), elemSize: 4}
			if got := NewFOR(vals, 4); !reflect.DeepEqual(got, wantFOR) {
				t.Fatalf("card %d n %d: NewFOR differs from the reference", card, n)
			}
			if got, ok := NewCodec(Auto, 4).Encode(vals).(*FORVector); ok && !reflect.DeepEqual(got, wantFOR) {
				t.Fatalf("card %d n %d: the codec's FOR differs from the reference", card, n)
			}
		}
	}
}

// FuzzCodecRange feeds arbitrary values and bounds to every encoding's
// kernels and holds them to the plain reference. The bytes become
// little-endian uint64s shifted right by shift (so every bit width
// occurs), offset by base.
func FuzzCodecRange(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, int64(0), int64(3), int64(9), uint8(60))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0}, int64(math.MinInt64), int64(math.MinInt64), int64(-1), uint8(0))
	f.Add(make([]byte, 8*70), int64(math.MaxInt64), int64(10), int64(5), uint8(13))
	f.Fuzz(func(t *testing.T, data []byte, base, lo, hi int64, shift uint8) {
		data = data[:min(len(data), 8*4097)] // a few blocks past 4096 rows is enough
		vals := make([]int64, 0, len(data)/8+1)
		for len(data) > 0 {
			var word [8]byte
			data = data[copy(word[:], data):]
			vals = append(vals, base+int64(binary.LittleEndian.Uint64(word[:])>>(shift%64)))
		}
		qs := append(kernelRanges(vals), [2]int64{lo, hi})
		checkKernels(t, "fuzz", vals, qs)
	})
}

// packCodes packs vals, each already a code that fits in w bits, through
// the encoders' block path.
func packCodes(vals []int64, w uint) packed {
	p := newPacked(len(vals), w)
	var buf [blockLen]uint64
	for b := 0; b*blockLen < len(vals); b++ {
		src := vals[b*blockLen : min((b+1)*blockLen, len(vals))]
		for i, v := range src {
			buf[i] = uint64(v)
		}
		p.put(b, &buf, len(src))
	}
	return p
}
