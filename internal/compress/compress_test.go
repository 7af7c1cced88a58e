package compress

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"selforg/internal/bat"
)

// inputs returns the property-test corpus: random, constant, sorted,
// reverse-sorted, low-cardinality, runny, adversarial extremes, and the
// empty and single-value edges.
func inputs() map[string][]int64 {
	rng := rand.New(rand.NewSource(42))
	random := make([]int64, 2000)
	for i := range random {
		random[i] = rng.Int63n(1_000_000)
	}
	sorted := append([]int64(nil), random...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	reverse := make([]int64, len(sorted))
	for i, v := range sorted {
		reverse[len(sorted)-1-i] = v
	}
	lowCard := make([]int64, 2000)
	for i := range lowCard {
		lowCard[i] = int64(rng.Intn(5)) * 17
	}
	runny := make([]int64, 0, 2000)
	for len(runny) < 2000 {
		v := rng.Int63n(100)
		for k := 0; k <= rng.Intn(50) && len(runny) < 2000; k++ {
			runny = append(runny, v)
		}
	}
	constant := make([]int64, 1000)
	for i := range constant {
		constant[i] = -7
	}
	adversarial := []int64{
		math.MaxInt64, math.MinInt64, 0, -1, 1,
		math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, 0, 0,
	}
	negatives := make([]int64, 500)
	for i := range negatives {
		negatives[i] = -rng.Int63n(10_000) - 1
	}
	return map[string][]int64{
		"random":      random,
		"sorted":      sorted,
		"reverse":     reverse,
		"lowCard":     lowCard,
		"runny":       runny,
		"constant":    constant,
		"adversarial": adversarial,
		"negatives":   negatives,
		"empty":       {},
		"single":      {12345},
	}
}

// TestRoundTrip asserts every encoding reproduces every corpus input
// exactly, in order, through every read path.
func TestRoundTrip(t *testing.T) {
	for name, vals := range inputs() {
		for _, e := range Encodings {
			v := Encode(append([]int64(nil), vals...), e, 4)
			if v.Encoding() != e {
				t.Fatalf("%s/%v: encoding = %v", name, e, v.Encoding())
			}
			if v.Len() != len(vals) {
				t.Fatalf("%s/%v: len = %d, want %d", name, e, v.Len(), len(vals))
			}
			got := v.AppendTo(nil)
			if len(vals) > 0 && !reflect.DeepEqual(got, vals) {
				t.Fatalf("%s/%v: AppendTo mismatch", name, e)
			}
			for i, want := range vals {
				if v.At(i) != want {
					t.Fatalf("%s/%v: At(%d) = %d, want %d", name, e, i, v.At(i), want)
				}
				if v.Get(i).AsLng() != want {
					t.Fatalf("%s/%v: Get(%d) mismatch", name, e, i)
				}
			}
			if v.Kind() != bat.KLng {
				t.Fatalf("%s/%v: kind = %v", name, e, v.Kind())
			}
		}
	}
}

// TestMinMax asserts the synopsis matches the data.
func TestMinMax(t *testing.T) {
	for name, vals := range inputs() {
		for _, e := range Encodings {
			v := Encode(append([]int64(nil), vals...), e, 4)
			lo, hi, ok := v.MinMax()
			if ok != (len(vals) > 0) {
				t.Fatalf("%s/%v: ok = %v", name, e, ok)
			}
			if !ok {
				continue
			}
			wantLo, wantHi := vals[0], vals[0]
			for _, x := range vals {
				if x < wantLo {
					wantLo = x
				}
				if x > wantHi {
					wantHi = x
				}
			}
			if lo != wantLo || hi != wantHi {
				t.Fatalf("%s/%v: MinMax = (%d, %d), want (%d, %d)", name, e, lo, hi, wantLo, wantHi)
			}
		}
	}
}

// queryBounds derives a spread of range predicates for vals: empty-hit,
// all-hit, half, narrow, and point queries.
func queryBounds(vals []int64) [][2]int64 {
	qs := [][2]int64{{10, 5}, {math.MinInt64, math.MaxInt64}, {0, 0}}
	if len(vals) == 0 {
		return qs
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	mid := lo/2 + hi/2
	qs = append(qs, [2]int64{lo, hi}, [2]int64{lo, mid}, [2]int64{mid, hi},
		[2]int64{vals[len(vals)/2], vals[len(vals)/2]}, [2]int64{hi + 1, math.MaxInt64})
	if lo > math.MinInt64 {
		qs = append(qs, [2]int64{math.MinInt64, lo - 1})
	}
	return qs
}

// TestRangeFastPaths asserts SelectRange, CountRange and RangeSpans agree
// with the brute-force reference on every encoding, corpus and query.
func TestRangeFastPaths(t *testing.T) {
	for name, vals := range inputs() {
		for _, q := range queryBounds(vals) {
			lo, hi := q[0], q[1]
			var want []int64
			for _, v := range vals {
				if v >= lo && v <= hi {
					want = append(want, v)
				}
			}
			for _, e := range Encodings {
				v := Encode(append([]int64(nil), vals...), e, 4)
				got := v.SelectRange(lo, hi, nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%v [%d,%d]: SelectRange = %v, want %v", name, e, lo, hi, got, want)
				}
				if c := v.CountRange(lo, hi); c != int64(len(want)) {
					t.Fatalf("%s/%v [%d,%d]: CountRange = %d, want %d", name, e, lo, hi, c, len(want))
				}
				var spanned []int64
				prevEnd := -1
				v.Spans(lo, hi, func(s, end int) {
					if s >= end || s < prevEnd {
						t.Fatalf("%s/%v [%d,%d]: bad span [%d,%d) after %d", name, e, lo, hi, s, end, prevEnd)
					}
					prevEnd = end
					for i := s; i < end; i++ {
						spanned = append(spanned, v.At(i))
					}
				})
				if !reflect.DeepEqual(spanned, want) {
					t.Fatalf("%s/%v [%d,%d]: RangeSpans mismatch", name, e, lo, hi)
				}
			}
		}
	}
}

// TestBatVectorSemantics asserts the bat.Vector surface: Append decays to
// a working vector, Slice decodes the window, Empty is empty.
func TestBatVectorSemantics(t *testing.T) {
	vals := []int64{5, 5, 5, 9, 2, 2, 7}
	for _, e := range Encodings {
		v := Encode(append([]int64(nil), vals...), e, 4)
		app := v.Append(bat.Lng(11))
		if app.Len() != len(vals)+1 || app.Get(app.Len()-1).AsLng() != 11 {
			t.Fatalf("%v: Append failed", e)
		}
		sl := v.Slice(2, 5)
		if sl.Len() != 3 || sl.Get(0).AsLng() != 5 || sl.Get(1).AsLng() != 9 || sl.Get(2).AsLng() != 2 {
			t.Fatalf("%v: Slice = %v", e, sl)
		}
		if v.Empty().Len() != 0 {
			t.Fatalf("%v: Empty not empty", e)
		}
		// The original is untouched by Append/Slice.
		if !reflect.DeepEqual(v.AppendTo(nil), vals) {
			t.Fatalf("%v: mutated by Append/Slice", e)
		}
	}
}

// TestStoredBytes asserts the accounting: Plain matches the uncompressed
// baseline exactly; RLE/Dict/FOR beat it on their favourable shapes.
func TestStoredBytes(t *testing.T) {
	const elem = 4
	constant := make([]int64, 1000)
	p := Encode(constant, Plain, elem)
	if p.StoredBytes() != 4000 {
		t.Errorf("plain stored = %d, want 4000", p.StoredBytes())
	}
	if r := Encode(constant, RLE, elem); r.StoredBytes() >= p.StoredBytes() {
		t.Errorf("rle on constant = %d, plain %d", r.StoredBytes(), p.StoredBytes())
	}
	lowCard := make([]int64, 1000)
	for i := range lowCard {
		lowCard[i] = int64(i % 4)
	}
	if d := Encode(lowCard, Dict, elem); d.StoredBytes() >= p.StoredBytes() {
		t.Errorf("dict on low-card = %d, plain %d", d.StoredBytes(), p.StoredBytes())
	}
	narrow := make([]int64, 1000)
	for i := range narrow {
		narrow[i] = 1_000_000 + int64(i%256)
	}
	if f := Encode(narrow, FOR, elem); f.StoredBytes() >= p.StoredBytes() {
		t.Errorf("for on narrow = %d, plain %d", f.StoredBytes(), p.StoredBytes())
	}
}

// TestBitpack exercises the packed array across widths including the
// 64-bit and word-straddling cases.
func TestBitpack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, width := range []uint{0, 1, 3, 7, 8, 13, 31, 33, 63, 64} {
		vals := make([]uint64, 257)
		for i := range vals {
			if width == 64 {
				vals[i] = rng.Uint64()
			} else {
				vals[i] = rng.Uint64() & (1<<width - 1)
			}
		}
		if width == 0 {
			for i := range vals {
				vals[i] = 0
			}
		}
		p := packAll(vals, width)
		for i, want := range vals {
			if got := p.get(i); got != want {
				t.Fatalf("width %d: get(%d) = %d, want %d", width, i, got, want)
			}
		}
	}
}

// TestDblMappingMonotone asserts the float64<->int64 mapping is
// order-preserving and lossless, including infinities.
func TestDblMappingMonotone(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -2.5, -1.0, -1e-300,
		0, 1e-300, 1.0, 2.5, 1e300, math.Inf(1)}
	for i, f := range vals {
		if got := unmapDbl(mapDbl(f)); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("roundtrip %g -> %g", f, got)
		}
		if i > 0 && mapDbl(vals[i-1]) >= mapDbl(f) {
			t.Errorf("order broken at %g >= %g", vals[i-1], f)
		}
	}
	// Negative zero collapses onto +0.0 (equal under float comparison),
	// so a 0.0 predicate bound treats both identically.
	if mapDbl(math.Copysign(0, -1)) != mapDbl(0) {
		t.Error("-0.0 and +0.0 map differently")
	}
	if got := unmapDbl(mapDbl(math.Copysign(0, -1))); got != 0 || math.Signbit(got) {
		t.Errorf("-0.0 decodes to %g", got)
	}
	// NaN maps strictly outside [-Inf, +Inf], so ordered predicates
	// exclude it just as float comparison does.
	if nan := mapDbl(math.NaN()); nan <= mapDbl(math.Inf(1)) && nan >= mapDbl(math.Inf(-1)) {
		t.Error("NaN maps inside the ordered interval")
	}
}

// TestDblVector asserts the adapter round-trips and selects correctly on
// a SkyServer-shaped ra column.
func TestDblVector(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = rng.Float64() * 360
	}
	for _, e := range Encodings {
		d := EncodeDbls(vals, e, 4)
		if d.Kind() != bat.KDbl || d.Len() != len(vals) {
			t.Fatalf("%v: kind/len wrong", e)
		}
		for i, want := range vals {
			if d.AtDbl(i) != want {
				t.Fatalf("%v: AtDbl(%d) = %g, want %g", e, i, d.AtDbl(i), want)
			}
		}
		lo, hi := 100.0, 200.0
		var wantCount int64
		for _, f := range vals {
			if f >= lo && f <= hi {
				wantCount++
			}
		}
		if c := d.CountRangeDbl(lo, hi); c != wantCount {
			t.Fatalf("%v: CountRangeDbl = %d, want %d", e, c, wantCount)
		}
		var spanned int64
		d.RangeSpans(bat.Dbl(lo), bat.Dbl(hi), func(s, end int) {
			for i := s; i < end; i++ {
				if f := d.AtDbl(i); f < lo || f > hi {
					t.Fatalf("%v: span value %g outside [%g, %g]", e, f, lo, hi)
				}
				spanned++
			}
		})
		if spanned != wantCount {
			t.Fatalf("%v: spans covered %d rows, want %d", e, spanned, wantCount)
		}
	}
}

// TestDblNaNBoundsMatchNothing: a NaN bound compares false with every
// value, so a range with one matches no row — under every encoding, for
// counts and spans alike — while ordinary bounds over the same vector,
// infinities included, still match.
func TestDblNaNBoundsMatchNothing(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	vals := []float64{-1, 0, 1, 2.5, inf}
	for _, c := range []struct {
		name   string
		lo, hi float64
		want   int64
	}{
		{"hi NaN", 0, nan, 0},
		{"lo -NaN", math.Copysign(nan, -1), 1, 0},
		{"lo NaN", nan, 1, 0},
		{"both NaN", nan, nan, 0},
		{"NaN to +Inf", nan, inf, 0},
		{"-Inf to NaN", math.Inf(-1), nan, 0},
		{"ordinary", 0, 2.5, 3},
		{"to +Inf", 0, inf, 4},
		{"inverted", 1, 0, 0},
	} {
		for _, e := range Encodings {
			d := EncodeDbls(vals, e, 4)
			if got := d.CountRangeDbl(c.lo, c.hi); got != c.want {
				t.Errorf("%s/%v: CountRangeDbl(%g, %g) = %d, want %d", c.name, e, c.lo, c.hi, got, c.want)
			}
			var spanned int64
			d.RangeSpans(bat.Dbl(c.lo), bat.Dbl(c.hi), func(s, end int) { spanned += int64(end - s) })
			if spanned != c.want {
				t.Errorf("%s/%v: RangeSpans(%g, %g) covered %d rows, want %d", c.name, e, c.lo, c.hi, spanned, c.want)
			}
		}
	}
}

// TestDblDecodePaths: AppendToDbl and Slice decode through the inner
// encoding's kernel and agree with point access.
func TestDblDecodePaths(t *testing.T) {
	vals := []float64{math.Inf(-1), -2.5, 0, 1e-300, 3, 3, 3, math.Inf(1)}
	for _, e := range Encodings {
		d := EncodeDbls(vals, e, 4)
		if got := d.AppendToDbl([]float64{9}); !reflect.DeepEqual(got, append([]float64{9}, vals...)) {
			t.Errorf("%v: AppendToDbl = %v", e, got)
		}
		sl := d.Slice(1, 6)
		for i := 0; i < sl.Len(); i++ {
			if got := sl.Get(i).AsDbl(); got != vals[1+i] || got != d.AtDbl(1+i) {
				t.Errorf("%v: Slice(1, 6)[%d] = %g, want %g", e, i, got, vals[1+i])
			}
		}
		if sl.Len() != 5 || sl.Kind() != bat.KDbl {
			t.Errorf("%v: Slice(1, 6) has len %d kind %v", e, sl.Len(), sl.Kind())
		}
	}
}

// TestAdvisorChoice asserts the advisor picks the winning encoding on
// clear-cut shapes and never regresses past Plain.
func TestAdvisorChoice(t *testing.T) {
	var a Advisor
	const elem = 4

	constant := make([]int64, 10_000)
	if e := a.Choose(constant, elem); e != RLE {
		t.Errorf("constant: chose %v, want rle", e)
	}

	lowCard := make([]int64, 10_000)
	rng := rand.New(rand.NewSource(3))
	for i := range lowCard {
		lowCard[i] = int64(rng.Intn(8)) * 1_000_003 // wide span kills FOR, 8 distinct favours Dict
	}
	if e := a.Choose(lowCard, elem); e != Dict {
		t.Errorf("low-cardinality: chose %v, want dict", e)
	}

	narrow := make([]int64, 10_000)
	for i := range narrow {
		narrow[i] = 5_000_000 + rng.Int63n(200) // distinct≈200, span 200: FOR packs to 8 bits
	}
	if e := a.Choose(narrow, elem); e == Plain || e == RLE {
		t.Errorf("narrow-span: chose %v, want dict or for", e)
	}

	// For every corpus input, the chosen encoding's actual size must not
	// exceed plain's by more than the sampling slack.
	for name, vals := range inputs() {
		e := a.Choose(vals, elem)
		v := Encode(append([]int64(nil), vals...), e, elem)
		plain := int64(len(vals)) * elem
		if v.StoredBytes() > plain+plain/4+16 {
			t.Errorf("%s: chose %v at %d bytes, plain is %d", name, e, v.StoredBytes(), plain)
		}
	}
}

// TestCodec asserts the mode plumbing: Off is nil, forced modes force,
// Auto adapts.
func TestCodec(t *testing.T) {
	if NewCodec(Off, 4) != nil {
		t.Fatal("Off codec not nil")
	}
	vals := make([]int64, 1000) // constant zeros
	if c := NewCodec(ForceFOR, 4); c.Encode(vals).Encoding() != FOR {
		t.Error("ForceFOR did not force")
	}
	if c := NewCodec(ForcePlain, 4); c.Encode(vals).Encoding() != Plain {
		t.Error("ForcePlain did not force")
	}
	if c := NewCodec(Auto, 4); c.Encode(vals).Encoding() != RLE {
		t.Error("Auto on constant input did not pick rle")
	}
	dbl := make([]float64, 500)
	if c := NewCodec(Auto, 4); c.EncodeDbls(dbl).Encoding() != RLE {
		t.Error("Auto on constant dbl input did not pick rle")
	}
}

// TestProfileSampling asserts sampled profiles scale run counts and keep
// exact extremes.
func TestProfileSampling(t *testing.T) {
	a := Advisor{SampleSize: 100}
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = int64(i) // strictly increasing: runs == n
	}
	p := a.Profile(vals)
	if !p.Sampled {
		t.Fatal("profile not sampled")
	}
	if p.Min != 0 || p.Max != 9999 {
		t.Errorf("extremes = (%d, %d)", p.Min, p.Max)
	}
	if p.Runs < 9000 {
		t.Errorf("scaled runs = %d, want ≈10000", p.Runs)
	}
}
