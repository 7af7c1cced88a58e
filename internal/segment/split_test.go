package segment

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"selforg/internal/compress"
	"selforg/internal/domain"
)

// parentModes are the payload forms a split parent can hold: raw, then
// every encoding the codec can force.
var parentModes = []compress.Mode{compress.Off, compress.ForcePlain, compress.ForceRLE, compress.ForceDict, compress.ForceFOR}

// parent builds a materialized segment over rng holding vals in the
// payload form mode selects.
func parent(rng domain.Range, vals []domain.Value, mode compress.Mode) *Segment {
	s := NewMaterialized(rng, slices.Clone(vals))
	s.Encode(compress.NewCodec(mode, 4))
	return s
}

// checkSplit cuts s at cuts and holds every piece to the stable filter of
// the decoded payload by the piece's range: same values in the same
// order, at exact capacity, raw, with the summary equal to Σ and IDs
// ascending in piece order. It returns the pieces.
func checkSplit(t *testing.T, name string, s *Segment, cuts []domain.Value) []*Segment {
	t.Helper()
	all := s.AppendValues(nil)
	pieces := s.Split(cuts...)
	if len(pieces) != len(cuts)+1 {
		t.Fatalf("%s %v: %d pieces, want %d", name, cuts, len(pieces), len(cuts)+1)
	}
	lo := s.Rng.Lo
	for i, p := range pieces {
		want := domain.Range{Lo: lo, Hi: s.Rng.Hi}
		if i < len(cuts) {
			want.Hi = cuts[i]
			lo = cuts[i] + 1
		}
		var filtered []domain.Value
		var sum int64
		for _, v := range all {
			if want.Contains(v) {
				filtered = append(filtered, v)
				sum += v
			}
		}
		switch {
		case p.Rng != want:
			t.Fatalf("%s %v: piece %d covers %v, want %v", name, cuts, i, p.Rng, want)
		case p.Virtual || p.Enc != nil:
			t.Fatalf("%s %v: piece %d is not a raw materialized segment", name, cuts, i)
		case !slices.Equal(p.Vals, filtered):
			t.Fatalf("%s %v: piece %d = %v, want %v", name, cuts, i, p.Vals, filtered)
		case cap(p.Vals) != len(p.Vals):
			t.Fatalf("%s %v: piece %d has cap %d for %d values", name, cuts, i, cap(p.Vals), len(p.Vals))
		case p.Count() != int64(len(filtered)) || p.Sum() != sum:
			t.Fatalf("%s %v: piece %d summary (%d, %d), want (%d, %d)", name, cuts, i, p.Count(), p.Sum(), len(filtered), sum)
		case i > 0 && p.ID <= pieces[i-1].ID:
			t.Fatalf("%s %v: piece IDs %d, %d do not ascend", name, cuts, pieces[i-1].ID, p.ID)
		}
	}
	return pieces
}

// checkRawKernels holds a raw segment's SelectCount, AppendSelect and
// SelectSum on q to a naive loop over its payload.
func checkRawKernels(t *testing.T, name string, s *Segment, q domain.Range) {
	t.Helper()
	var want []domain.Value
	var sum int64
	for _, v := range s.Vals {
		if v >= q.Lo && v <= q.Hi {
			want = append(want, v)
			sum += v
		}
	}
	n := int64(len(want))
	if got := s.SelectCount(q); got != n {
		t.Fatalf("%s %v on %v: SelectCount = %d, want %d", name, q, s, got, n)
	}
	if got := s.AppendSelect(q, nil); !slices.Equal(got, want) {
		t.Fatalf("%s %v on %v: AppendSelect = %v, want %v", name, q, s, got, want)
	}
	if gn, gs := s.SelectSum(q); gn != n || gs != sum {
		t.Fatalf("%s %v on %v: SelectSum = (%d, %d), want (%d, %d)", name, q, s, gn, gs, n, sum)
	}
}

// splitCuts lists the cut sets worth trying on rng: none, the first
// value, the last value, both, the middle, and a one-value piece around
// v — every set ascending inside the splittable interior.
func splitCuts(rng domain.Range, v domain.Value) [][]domain.Value {
	cuts := [][]domain.Value{{}}
	if rng.Lo == rng.Hi {
		return cuts
	}
	mid := rng.Lo + int64((uint64(rng.Hi)-uint64(rng.Lo))/2)
	cuts = append(cuts, []domain.Value{rng.Lo}, []domain.Value{rng.Hi - 1}, []domain.Value{mid})
	if rng.Lo < rng.Hi-1 {
		cuts = append(cuts, []domain.Value{rng.Lo, rng.Hi - 1})
	}
	if v > rng.Lo && v < rng.Hi {
		cuts = append(cuts, []domain.Value{v - 1, v})
	}
	return cuts
}

// TestSplitMatchesFilter runs the split kernel over raw, Plain, RLE, Dict
// and FOR parents whose values span 0, 1, 13, 63 and 64 bits, with frames
// pinned at MinInt64 and MaxInt64, row counts around the 64-value block,
// and cuts at the first value, the last value and mid-range — empty
// pieces included.
func TestSplitMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, w := range []uint{0, 1, 13, 63, 64} {
		mask := uint64(1)<<w - 1
		if w == 64 {
			mask = math.MaxUint64
		}
		for _, base := range []uint64{1 << 63, uint64(math.MaxInt64) - mask} {
			for _, n := range []int{0, 1, 63, 64, 65, 1000} {
				vals := make([]domain.Value, n)
				for i := range vals {
					vals[i] = int64(base + rng.Uint64()&mask)
				}
				if n >= 2 {
					vals[0], vals[n-1] = int64(base), int64(base+mask)
				}
				r := domain.Range{Lo: int64(base), Hi: int64(base + mask)}
				if w == 0 { // widen the frame so there is an interior to cut, and an empty piece
					if r.Hi < math.MaxInt64 {
						r.Hi++
					} else {
						r.Lo--
					}
				}
				var probe domain.Value
				if n > 0 {
					probe = vals[n/2]
				}
				for _, mode := range parentModes {
					s := parent(r, vals, mode)
					for _, cuts := range splitCuts(r, probe) {
						checkSplit(t, fmt.Sprintf("w%d/n%d/%v/%v", w, n, r, mode), s, cuts)
					}
				}
			}
		}
	}
}

// TestSplitPanicsOnValuesOutsideRange holds the kernel's O(1) range
// guard: a parent whose payload breaks its range invariant — built
// around NewMaterialized's check — must not split into pieces that carry
// the breach along, raw or encoded.
func TestSplitPanicsOnValuesOutsideRange(t *testing.T) {
	bad := vals(5, 150, 40)
	for _, mode := range parentModes {
		s := &Segment{ID: idCounter.Add(1), Rng: domain.NewRange(0, 99), Vals: slices.Clone(bad)}
		s.Encode(compress.NewCodec(mode, 4))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: Split of a parent holding 150 in [0, 99] did not panic", mode)
				}
			}()
			s.Split(50)
		}()
	}
}

// FuzzSplit splits arbitrary payloads at arbitrary cuts and holds the
// pieces to the stable filter. The bytes become little-endian uint64s
// shifted right by shift (so every bit width occurs) and offset by base;
// the parent covers exactly their extremes (one value wider when they
// coincide), stored in the form mode picks; c1 and c2 are folded into
// its splittable interior. Every piece's raw kernels are then held to a
// naive loop on [c1, c2] as drawn, on the folded pair in the order drawn
// and on the first folded cut alone: out-of-extent, inverted,
// boundary-touching and single-value ranges all occur.
func FuzzSplit(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, int64(0), uint8(60), uint8(4), int64(3), int64(9))
	f.Fuzz(func(t *testing.T, data []byte, base int64, shift, mode uint8, c1, c2 int64) {
		data = data[:min(len(data), 8*4097)]
		vs := make([]domain.Value, 0, len(data)/8+1)
		for len(data) > 0 {
			var word [8]byte
			data = data[copy(word[:], data):]
			vs = append(vs, base+int64(binary.LittleEndian.Uint64(word[:])>>(shift%64)))
		}
		r := domain.Range{Lo: base, Hi: base}
		if len(vs) > 0 {
			r = domain.Range{Lo: slices.Min(vs), Hi: slices.Max(vs)}
		}
		if r.Lo == r.Hi && r.Hi < math.MaxInt64 {
			r.Hi++ // an interior to cut, and an empty piece
		}
		s := parent(r, vs, parentModes[int(mode)%len(parentModes)])
		var cuts []domain.Value
		qs := []domain.Range{{Lo: c1, Hi: c2}}
		if interior := uint64(r.Hi) - uint64(r.Lo); interior > 0 {
			for _, c := range []int64{c1, c2} {
				cuts = append(cuts, int64(uint64(r.Lo)+uint64(c)%interior))
			}
			qs = append(qs, domain.Range{Lo: cuts[0], Hi: cuts[1]}, domain.Range{Lo: cuts[0], Hi: cuts[0]})
			slices.Sort(cuts)
			cuts = slices.Compact(cuts)
		}
		for _, p := range checkSplit(t, "fuzz", s, cuts) {
			for _, q := range qs {
				checkRawKernels(t, "fuzz", p, q)
			}
		}
	})
}
