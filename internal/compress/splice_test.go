package compress

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// runnyVals draws a run-heavy sequence (RLE territory) with runs of
// 1..8 over a small alphabet, so range filters drop and merge runs.
func runnyVals(rng *rand.Rand, n int) []int64 {
	vals := make([]int64, 0, n)
	for len(vals) < n {
		v := rng.Int63n(16)
		for r := rng.Intn(8) + 1; r > 0 && len(vals) < n; r-- {
			vals = append(vals, v)
		}
	}
	return vals
}

// assertSameVector checks that got is indistinguishable from want:
// same encoding, same values in order, same accounted size, same
// min/max and, for RLE, the same run list. The splice kernels promise
// exact equivalence with the decode → filter/append → re-encode path,
// not just value equality — that equivalence is what lets the
// Replicator cut and extend encoded replicas without decoding them.
func assertSameVector(t *testing.T, got, want Vector) {
	t.Helper()
	if got.Encoding() != want.Encoding() {
		t.Fatalf("encoding %v != %v", got.Encoding(), want.Encoding())
	}
	if !slices.Equal(got.AppendTo(nil), want.AppendTo(nil)) {
		t.Fatalf("values %v != %v", got.AppendTo(nil), want.AppendTo(nil))
	}
	if got.StoredBytes() != want.StoredBytes() {
		t.Fatalf("stored bytes %d != %d", got.StoredBytes(), want.StoredBytes())
	}
	gmin, gmax, gok := got.MinMax()
	wmin, wmax, wok := want.MinMax()
	if gok != wok || gmin != wmin || gmax != wmax {
		t.Fatalf("minmax (%d,%d,%v) != (%d,%d,%v)", gmin, gmax, gok, wmin, wmax, wok)
	}
	if g, ok := got.(*RLEVector); ok {
		w := want.(*RLEVector)
		if !slices.Equal(g.vals, w.vals) || !slices.Equal(g.ends, w.ends) {
			t.Fatalf("runs %v/%v != %v/%v", g.vals, g.ends, w.vals, w.ends)
		}
	}
}

// spliceCase is one input of the splice properties: a decoded sequence,
// a range to splice it to and values to extend it with.
type spliceCase struct {
	name   string
	vals   []int64
	lo, hi int64
	more   []int64
}

// spliceCases returns the edge rows followed by seeded random rows over
// run-heavy sequences, whose range filters drop and merge runs.
func spliceCases() []spliceCase {
	cases := []spliceCase{
		{"empty input", nil, 0, 10, []int64{1, 1}},
		{"empty range", []int64{3, 3, 5}, 9, 12, []int64{5, 6}},
		{"inverted range", []int64{3, 3, 5}, 5, 3, []int64{7}},
		{"empty more", []int64{1, 1, 2}, 0, 5, nil},
		{"everything kept", []int64{2, 2, 7, 7, 7}, 0, 9, []int64{7, 7}},
		{"runs merge across a dropped run", []int64{4, 4, 9, 4, 4, 9, 9, 4}, 0, 5, []int64{4}},
		{"more absorbed into the last run", []int64{1, 2, 2}, 2, 2, []int64{2, 2, 3}},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		c := spliceCase{name: fmt.Sprintf("random %d", i), vals: runnyVals(rng, rng.Intn(200))}
		c.lo = rng.Int63n(16) - 2
		c.hi = c.lo + rng.Int63n(18)
		c.more = runnyVals(rng, rng.Intn(50))
		if i%5 == 0 && len(c.vals) > 0 && len(c.more) > 0 {
			c.more[0] = c.vals[len(c.vals)-1]
		}
		cases = append(cases, c)
	}
	return cases
}

// filtered is the decode → filter half of the re-encode path.
func (c spliceCase) filtered() []int64 {
	var out []int64
	for _, x := range c.vals {
		if x >= c.lo && x <= c.hi {
			out = append(out, x)
		}
	}
	return out
}

// TestSpliceRangeRLE: splicing run headers must equal re-encoding the
// filtered decoded sequence — run merges across dropped values
// included.
func TestSpliceRangeRLE(t *testing.T) {
	for _, c := range spliceCases() {
		t.Run(c.name, func(t *testing.T) {
			got, ok := SpliceRange(NewRLE(c.vals, 4), c.lo, c.hi)
			if !ok {
				t.Fatal("RLE splice refused")
			}
			assertSameVector(t, got, NewRLE(c.filtered(), 4))
		})
	}
}

// TestSpliceRangePlain: the Plain splice is an exact-size filtered copy.
func TestSpliceRangePlain(t *testing.T) {
	for _, c := range spliceCases() {
		t.Run(c.name, func(t *testing.T) {
			got, ok := SpliceRange(NewPlain(c.vals, 4), c.lo, c.hi)
			if !ok {
				t.Fatal("Plain splice refused")
			}
			assertSameVector(t, got, NewPlain(c.filtered(), 4))
		})
	}
}

// TestSpliceRangeUnsupported: Dict and FOR refuse (their forms do not
// survive filtering), so callers fall back to the decoded path.
func TestSpliceRangeUnsupported(t *testing.T) {
	vals := []int64{5, 5, 9, 9, 13}
	if _, ok := SpliceRange(NewDict(vals, 4), 0, 100); ok {
		t.Fatal("Dict splice should refuse")
	}
	if _, ok := SpliceRange(NewFOR(vals, 4), 0, 100); ok {
		t.Fatal("FOR splice should refuse")
	}
}

// TestExtendEncodedRLE: extending the run list must equal re-encoding
// the concatenated decoded sequence, including absorption of equal
// leading appends into the trailing run, and must leave its input
// untouched.
func TestExtendEncodedRLE(t *testing.T) {
	for _, c := range spliceCases() {
		t.Run(c.name, func(t *testing.T) {
			v := NewRLE(c.vals, 4)
			got, ok := ExtendEncoded(v, c.more)
			if !ok {
				t.Fatal("RLE extend refused")
			}
			assertSameVector(t, got, NewRLE(append(slices.Clone(c.vals), c.more...), 4))
			assertSameVector(t, v, NewRLE(c.vals, 4))
		})
	}
}

// TestExtendEncodedUnsupported: only RLE supports the encoded extend.
func TestExtendEncodedUnsupported(t *testing.T) {
	vals := []int64{1, 2, 3}
	for _, v := range []Vector{NewPlain(vals, 4), NewDict(vals, 4), NewFOR(vals, 4)} {
		if _, ok := ExtendEncoded(v, []int64{4}); ok {
			t.Fatalf("%v extend should refuse", v.Encoding())
		}
	}
}

// TestCodecAllows: Auto inherits any encoding, forced modes exactly
// theirs, Off none.
func TestCodecAllows(t *testing.T) {
	all := []Encoding{Plain, RLE, Dict, FOR}
	auto := NewCodec(Auto, 4)
	for _, e := range all {
		if !auto.Allows(e) {
			t.Errorf("Auto should allow %v", e)
		}
	}
	forced := NewCodec(ForceRLE, 4)
	for _, e := range all {
		if forced.Allows(e) != (e == RLE) {
			t.Errorf("ForceRLE.Allows(%v) = %v", e, forced.Allows(e))
		}
	}
	off := NewCodec(Off, 4)
	for _, e := range all {
		if off.Allows(e) {
			t.Errorf("Off should not allow %v", e)
		}
	}
}
