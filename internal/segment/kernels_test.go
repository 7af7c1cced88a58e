package segment

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"selforg/internal/compress"
	"selforg/internal/domain"
)

// TestRawPayloadMatchesPlain holds a raw segment's SelectCount,
// AppendSelect and SelectSum to the expected rows, position by position,
// and to the same segment Plain-encoded: both run the one Plain kernel.
// It also holds the range guard every raw materialization runs,
// checkedSum, to naming the first value outside the range.
func TestRawPayloadMatchesPlain(t *testing.T) {
	t.Run("checkedSum", checkedSumNamesFirstOutlier)
	full := domain.Range{Lo: math.MinInt64, Hi: math.MaxInt64}
	extremes := []domain.Value{math.MaxInt64, -1, math.MinInt64, 0, 1, math.MaxInt64 - 1}
	ramp := make([]domain.Value, 130) // crosses two 64-value block ends
	for i := range ramp {
		ramp[i] = int64(129 - i)
	}
	cases := []struct {
		name string
		rng  domain.Range
		vals []domain.Value
		q    domain.Range
		want []domain.Value
	}{
		{"inside", domain.NewRange(0, 9), vals(5, 1, 9, 3, 7), domain.NewRange(3, 7), vals(5, 3, 7)},
		{"lower bound", domain.NewRange(0, 9), vals(5, 1, 9, 3, 7), domain.NewRange(-5, 1), vals(1)},
		{"upper bound", domain.NewRange(0, 9), vals(5, 1, 9, 3, 7), domain.NewRange(9, 20), vals(9)},
		{"single value", domain.NewRange(0, 9), vals(3, 5, 3, 3), domain.NewRange(3, 3), vals(3, 3, 3)},
		{"inverted", domain.NewRange(0, 9), vals(5, 1, 9), domain.Range{Lo: 7, Hi: 3}, nil},
		{"empty range", domain.NewRange(0, 9), vals(5, 1, 9), domain.Empty(), nil},
		{"none qualifies", domain.NewRange(0, 9), vals(5, 1, 9), domain.NewRange(6, 8), nil},
		{"empty payload", domain.NewRange(0, 9), nil, domain.NewRange(0, 9), nil},
		{"MinInt64 bound", full, extremes, domain.Range{Lo: math.MinInt64, Hi: -1}, vals(-1, math.MinInt64)},
		{"MaxInt64 bound", full, extremes, domain.Range{Lo: 1, Hi: math.MaxInt64}, vals(math.MaxInt64, 1, math.MaxInt64-1)},
		{"MinInt64 point", full, extremes, domain.Range{Lo: math.MinInt64, Hi: math.MinInt64}, vals(math.MinInt64)},
		{"MaxInt64 point", full, extremes, domain.Range{Lo: math.MaxInt64, Hi: math.MaxInt64}, vals(math.MaxInt64)},
		{"full extent", full, extremes, full, extremes},
		{"inverted at the extremes", full, extremes, domain.Range{Lo: math.MaxInt64, Hi: math.MinInt64}, nil},
		{"across blocks", domain.NewRange(0, 129), ramp, domain.NewRange(60, 70), vals(70, 69, 68, 67, 66, 65, 64, 63, 62, 61, 60)},
	}
	for _, c := range cases {
		var sum int64
		for _, v := range c.want {
			sum += v
		}
		raw := NewMaterialized(c.rng, slices.Clone(c.vals))
		plain := NewMaterialized(c.rng, slices.Clone(c.vals))
		plain.Encode(compress.NewCodec(compress.ForcePlain, 8))
		for _, s := range []*Segment{raw, plain} {
			name := fmt.Sprintf("%s/%v", c.name, s.Encoding())
			if s == raw {
				name = c.name + "/raw"
			}
			if got := s.SelectCount(c.q); got != int64(len(c.want)) {
				t.Errorf("%s: SelectCount = %d, want %d", name, got, len(c.want))
			}
			if n, gs := s.SelectSum(c.q); n != int64(len(c.want)) || gs != sum {
				t.Errorf("%s: SelectSum = (%d, %d), want (%d, %d)", name, n, gs, len(c.want), sum)
			}
			// A prefix in dst must survive and the rows follow it in order;
			// when none qualifies dst comes back as it went in.
			dst := append(make([]domain.Value, 0, 2), 42)
			got := s.AppendSelect(c.q, dst)
			if got[0] != 42 || !slices.Equal(got[1:], c.want) {
				t.Errorf("%s: AppendSelect = %v, want [42 %v]", name, got, c.want)
			}
			if len(c.want) == 0 && (len(got) != len(dst) || cap(got) != cap(dst) || &got[0] != &dst[0]) {
				t.Errorf("%s: AppendSelect with no row qualifying returned a different slice", name)
			}
		}
	}
}

// TestAppendSelectPresize holds a nil-destination AppendSelect to one
// allocation for a result near its uniform estimate, and to at most
// presizeMax reserved rows when skew makes the estimate far too high.
func TestAppendSelectPresize(t *testing.T) {
	const n = 4 * presizeMax
	rng := domain.NewRange(0, n-1)
	uniform, skewed := make([]domain.Value, n), make([]domain.Value, n)
	for i := range uniform {
		uniform[i], skewed[i] = int64(i), int64(i%10) // skewed: all rows in [0, 9]
	}
	cases := []struct {
		name string
		vals []domain.Value
		q    domain.Range
		want int
	}{
		{"uniform", uniform, domain.NewRange(2_000, 2_399), 400},
		{"skewed, none qualifies", skewed, domain.NewRange(n/2, n-1), 0},
		{"skewed, all qualify", skewed, domain.NewRange(0, 99), n},
	}
	for _, c := range cases {
		s := NewMaterialized(rng, c.vals)
		var got []domain.Value
		allocs := testing.AllocsPerRun(10, func() { got = s.AppendSelect(c.q, nil) })
		if len(got) != c.want {
			t.Errorf("%s: %d rows, want %d", c.name, len(got), c.want)
		}
		if c.want <= presizeMax && (allocs != 1 || cap(got) > presizeMax) {
			t.Errorf("%s: %v allocations, capacity %d; want 1 of at most %d", c.name, allocs, cap(got), presizeMax)
		}
	}
}

// checkedSumNamesFirstOutlier holds checkedSum to its contract: a
// payload inside the range sums, and a payload with a value outside
// panics naming the first such value, not the extreme the O(1) guard
// tripped on.
func checkedSumNamesFirstOutlier(t *testing.T) {
	rng := domain.NewRange(0, 9)
	cases := []struct {
		name    string
		vals    []domain.Value
		outlier string // "" = no panic
		sum     int64
	}{
		{"inside", vals(0, 9, 4), "", 13},
		{"empty", nil, "", 0},
		{"above", vals(1, 10, 5, 20), "value 10 outside", 0},
		{"below before above", vals(5, -3, 12), "value -3 outside", 0},
		{"above before below", vals(5, 40, -30), "value 40 outside", 0},
		{"MinInt64", vals(math.MinInt64, 3), fmt.Sprintf("value %d outside", int64(math.MinInt64)), 0},
		{"MaxInt64 last", vals(3, 4, math.MaxInt64), fmt.Sprintf("value %d outside", int64(math.MaxInt64)), 0},
	}
	for _, c := range cases {
		func() {
			defer func() {
				r := recover()
				switch {
				case c.outlier == "" && r != nil:
					t.Errorf("%s: panicked: %v", c.name, r)
				case c.outlier != "" && r == nil:
					t.Errorf("%s: no panic, want %q", c.name, c.outlier)
				case c.outlier != "" && !strings.Contains(fmt.Sprint(r), c.outlier):
					t.Errorf("%s: panic %q does not name %q", c.name, r, c.outlier)
				}
			}()
			if got := checkedSum(rng, c.vals); got != c.sum {
				t.Errorf("%s: checkedSum = %d, want %d", c.name, got, c.sum)
			}
		}()
	}
}
