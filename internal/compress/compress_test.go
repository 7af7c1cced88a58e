package compress

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
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
// exactly, in order.
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

// TestRangeFastPaths asserts SelectRange and CountRange agree with the
// brute-force reference on every encoding, corpus and query.
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
			}
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
}

// TestBitpack round-trips random values through the block packer and the
// selecting walk at widths on and off the word boundary, over a row count
// that ends in a partial block.
func TestBitpack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, width := range []uint{0, 1, 3, 7, 8, 13, 31, 33, 63, 64} {
		vals := make([]int64, 257)
		for i := range vals {
			v := rng.Uint64()
			if width < 64 {
				v &= 1<<width - 1
			}
			vals[i] = int64(v)
		}
		p := packCodes(vals, width)
		if got := p.appendRange(0, math.MaxUint64, nil, func([]int64) {}); !reflect.DeepEqual(got, vals) {
			t.Fatalf("width %d: unpacked %v, want %v", width, got, vals)
		}
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

// mapProfile is Profile as it counted distinct values with a map: the
// reference sampleCounts is held to.
func mapProfile(a Advisor, vals []int64) Profile {
	p := Profile{N: len(vals)}
	if len(vals) == 0 {
		return p
	}
	p.Min, p.Max = vals[0], vals[0]
	for _, v := range vals {
		p.Min, p.Max = min(p.Min, v), max(p.Max, v)
	}
	sample := vals
	if s := a.sampleSize(); len(vals) > s {
		sample, p.Sampled = vals[:s], true
	}
	distinct := make(map[int64]struct{})
	runs := 0
	for i, v := range sample {
		if i == 0 || v != sample[i-1] {
			runs++
		}
		distinct[v] = struct{}{}
	}
	p.Runs, p.Distinct = runs, len(distinct)
	if p.Sampled {
		p.Runs = (runs-1)*len(vals)/len(sample) + 1
		if len(distinct) > len(sample)/2 {
			p.Distinct = min(len(distinct)*len(vals)/len(sample), len(vals))
		}
	}
	return p
}

// TestProfileMatchesMap holds the stack-table distinct count to the map
// it replaced: every Profile field equal, so every encoding choice is
// unchanged. Lengths straddle the default sample (1 023 / 1 024 /
// 1 025), values run from all-equal through sparse to dense, negative
// and at the int64 extremes, and the sample sizes cover a small table,
// the default one and one from the heap.
func TestProfileMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	shapes := map[string]func(i int) int64{
		"all-equal":  func(int) int64 { return 7 },
		"sparse":     func(int) int64 { return rng.Int63n(5) * 1_000_003 },
		"half":       func(int) int64 { return rng.Int63n(600) },
		"dense":      func(int) int64 { return rng.Int63() },
		"sequential": func(i int) int64 { return int64(i) },
		"negative":   func(int) int64 { return -rng.Int63n(1 << 20) },
		"extremes": func(int) int64 {
			return []int64{math.MinInt64, math.MaxInt64, 0, -1, math.MinInt64 + 1}[rng.Intn(5)]
		},
		"multiples": func(i int) int64 { return int64(i) << 40 }, // equal low bits
	}
	for _, n := range []int{1, 2, 100, 1023, 1024, 1025, 3000} {
		for name, gen := range shapes {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = gen(i)
			}
			for _, a := range []Advisor{{}, {SampleSize: 100}, {SampleSize: 5000}} {
				if got, want := a.Profile(vals), mapProfile(a, vals); got != want {
					t.Errorf("%s n=%d sample %d: Profile %+v, map reference %+v", name, n, a.SampleSize, got, want)
				}
			}
		}
	}
}
