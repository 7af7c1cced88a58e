package model

import (
	"math"
	"testing"

	"selforg/internal/domain"
)

func seg(lo, hi domain.Value, bytes, total int64) SegmentInfo {
	return SegmentInfo{Rng: domain.NewRange(lo, hi), Bytes: bytes, TotalBytes: total}
}

func TestOddsShape(t *testing.T) {
	// O(0.5) = 1 for any sigma; O decays away from 0.5; larger sigma
	// decays slower (Figure 2).
	if o := Odds(0.5, 0.3); o != 1 {
		t.Errorf("O(0.5) = %v, want 1", o)
	}
	if !(Odds(0.2, 0.3) < 1) {
		t.Error("O should decay away from 0.5")
	}
	if !(Odds(0.1, 0.9) > Odds(0.1, 0.1)) {
		t.Error("larger sigma must decay slower")
	}
	if Odds(0.4, 0) != 0 {
		t.Error("O with sigma=0 should be 0")
	}
	// Symmetry around 0.5.
	if math.Abs(Odds(0.3, 0.4)-Odds(0.7, 0.4)) > 1e-12 {
		t.Error("O should be symmetric around 0.5")
	}
}

func TestGDWholeColumnLikelySplits(t *testing.T) {
	// sigma = 1 for the initial full column: a mid-range selection should
	// split nearly always.
	g := NewGaussianDice(1)
	s := seg(0, 999, 4000, 4000)
	q := domain.NewRange(250, 749) // x = 0.5
	splits := 0
	for i := 0; i < 1000; i++ {
		if g.Decide(q, s).Action == SplitBounds {
			splits++
		}
	}
	if splits < 990 {
		t.Errorf("whole-column mid split rate = %d/1000, want ~1000", splits)
	}
}

func TestGDSmallSegmentPointQueryRarelySplits(t *testing.T) {
	// A point-ish query (x ~ 0.001) on a segment that is 1% of the column
	// (sigma = 0.01) should essentially never split.
	g := NewGaussianDice(2)
	s := seg(0, 999, 1000, 100_000)
	q := domain.NewRange(500, 500)
	splits := 0
	for i := 0; i < 1000; i++ {
		if g.Decide(q, s).Action != NoSplit {
			splits++
		}
	}
	if splits > 0 {
		t.Errorf("tiny-x split rate = %d/1000, want 0", splits)
	}
}

func TestGDSplitRateTracksOdds(t *testing.T) {
	// Empirical split frequency must approximate O(x).
	g := NewGaussianDice(3)
	s := seg(0, 999, 1000, 2000) // sigma = 0.5
	q := domain.NewRange(0, 299) // x = 0.3 → O = exp(-0.04/0.5) = 0.923
	n, splits := 20000, 0
	for i := 0; i < n; i++ {
		if g.Decide(q, s).Action == SplitBounds {
			splits++
		}
	}
	want := Odds(0.3, 0.5)
	got := float64(splits) / float64(n)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("split rate = %v, want ~%v", got, want)
	}
}

func TestGDCoversAllNoSplit(t *testing.T) {
	g := NewGaussianDice(4)
	s := seg(100, 199, 400, 400)
	d := g.Decide(domain.NewRange(0, 500), s)
	if d.Action != NoSplit {
		t.Errorf("covers-all decision = %v", d.Action)
	}
}

func TestGDDeterministicWithSeed(t *testing.T) {
	s := seg(0, 999, 1000, 2000)
	q := domain.NewRange(100, 599)
	a, b := NewGaussianDice(42), NewGaussianDice(42)
	for i := 0; i < 100; i++ {
		if a.Decide(q, s) != b.Decide(q, s) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestGDName(t *testing.T) {
	if NewGaussianDice(1).Name() != "GD" {
		t.Error("GD name wrong")
	}
}

func TestAPMName(t *testing.T) {
	a := NewAPM(3*1024, 12*1024)
	if a.Name() != "APM 3.00KB-12.00KB" {
		t.Errorf("APM name = %q", a.Name())
	}
}

func TestAPMPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][2]int64{{0, 10}, {10, 10}, {20, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v did not panic", bounds)
				}
			}()
			NewAPM(bounds[0], bounds[1])
		}()
	}
}

func TestAPMRule1SmallSegmentIntact(t *testing.T) {
	a := NewAPM(1000, 4000)
	s := seg(0, 999, 500, 100_000) // SizeS < Mmin
	d := a.Decide(domain.NewRange(200, 799), s)
	if d.Action != NoSplit {
		t.Errorf("rule 1 violated: %v", d.Action)
	}
}

func TestAPMRule2SplitAtBounds(t *testing.T) {
	a := NewAPM(1000, 4000)
	// Segment of 6000 bytes over [0, 5999]: query [2000, 3999] cuts pieces
	// of ~2000 bytes each, all >= Mmin.
	s := seg(0, 5999, 6000, 100_000)
	d := a.Decide(domain.NewRange(2000, 3999), s)
	if d.Action != SplitBounds {
		t.Errorf("rule 2 violated: %v", d.Action)
	}
}

func TestAPMRule3SmallPieceMidSegmentIntact(t *testing.T) {
	a := NewAPM(1000, 4000)
	// SizeS = 3000 (between Mmin and Mmax); a point query would cut a tiny
	// piece → rule 3 says do not reorganize because SizeS <= Mmax.
	s := seg(0, 2999, 3000, 100_000)
	d := a.Decide(domain.NewRange(1500, 1509), s)
	if d.Action != NoSplit {
		t.Errorf("rule 3 (small S) violated: %v", d.Action)
	}
}

func TestAPMRule3LargeSegmentBorderSplit(t *testing.T) {
	a := NewAPM(1000, 4000)
	// SizeS = 10000 > Mmax; query [1500, 1599] strictly inside cuts a tiny
	// overlap. Both borders give both sides >= Mmin; Alg. 4 prefers the
	// smaller materialized side: [0, 1599] (1600B) < [1500, 9999] (8500B),
	// so split at qh = 1599 with the left side materialized.
	s := seg(0, 9999, 10_000, 100_000)
	d := a.Decide(domain.NewRange(1500, 1599), s)
	if d.Action != SplitPoint {
		t.Fatalf("rule 3 (large S) action = %v", d.Action)
	}
	if d.Point != 1599 || !d.MatLeft {
		t.Errorf("split point = %d matLeft = %v, want 1599/true", d.Point, d.MatLeft)
	}
}

func TestAPMRule3PrefersOtherBorderWhenCloser(t *testing.T) {
	a := NewAPM(1000, 4000)
	// Query near the high end: the smaller materialized side is
	// [ql, s.hgh] → split at ql-1 with the right side materialized.
	s := seg(0, 9999, 10_000, 100_000)
	d := a.Decide(domain.NewRange(8400, 8499), s)
	if d.Action != SplitPoint {
		t.Fatalf("action = %v", d.Action)
	}
	if d.Point != 8399 || d.MatLeft {
		t.Errorf("split point = %d matLeft = %v, want 8399/false", d.Point, d.MatLeft)
	}
}

func TestAPMRule3MeanFallback(t *testing.T) {
	a := NewAPM(1000, 4000)
	// Query at the very edge of a large segment: the only border split
	// would cut a piece < Mmin, so the mean is used instead.
	s := seg(0, 9999, 10_000, 100_000)
	d := a.Decide(domain.NewRange(0, 99), s) // covers-lower, tiny overlap
	if d.Action != SplitPoint {
		t.Fatalf("action = %v", d.Action)
	}
	if d.Point != 4999 {
		t.Errorf("mean split point = %d, want 4999", d.Point)
	}
	if !d.MatLeft {
		t.Error("selection sits in the low half; MatLeft should be true")
	}
}

// TestAPMExactBoundaries pins APM's rules at exactly Mmin and Mmax,
// where a `<` ↔ `<=` slip in apm.go changes the decision.
func TestAPMExactBoundaries(t *testing.T) {
	a := NewAPM(1000, 4000)
	for _, c := range []struct {
		name string
		seg  SegmentInfo
		q    domain.Range
		want Action
	}{
		// Rule 1 leaves only SizeS < Mmin intact. At SizeS == Mmin it
		// does not apply, and rules 2 and 3 keep the segment intact: every
		// piece is estimated below Mmin, and SizeS <= Mmax.
		{"SizeS == Mmin", seg(0, 999, 1000, 100_000), domain.NewRange(0, 499), NoSplit},
		// Rule 3 reorganizes only SizeS > Mmax.
		{"SizeS == Mmax", seg(0, 3999, 4000, 100_000), domain.NewRange(1500, 1509), NoSplit},
		{"SizeS == Mmax+1", seg(0, 4000, 4001, 100_000), domain.NewRange(1500, 1509), SplitPoint},
		// Rule 2: three pieces of exactly Mmin bytes each are all large.
		{"pieces == Mmin", seg(0, 2999, 3000, 100_000), domain.NewRange(1000, 1999), SplitBounds},
	} {
		if d := a.Decide(c.q, c.seg); d.Action != c.want {
			t.Errorf("%s: query %v on %v (%d B) = %v, want %v",
				c.name, c.q, c.seg.Rng, c.seg.Bytes, d.Action, c.want)
		}
	}
}

func TestAPMCoversAllNoSplit(t *testing.T) {
	a := NewAPM(1000, 4000)
	s := seg(100, 199, 5000, 100_000)
	if d := a.Decide(domain.NewRange(50, 250), s); d.Action != NoSplit {
		t.Errorf("covers-all decision = %v", d.Action)
	}
}

func TestAPMOneValueSegmentNoSplit(t *testing.T) {
	a := NewAPM(10, 40)
	s := seg(5, 5, 100, 1000)
	if d := a.Decide(domain.NewRange(5, 5), s); d.Action != NoSplit {
		t.Errorf("one-value segment decision = %v", d.Action)
	}
}

func TestAPMConvergenceSimulation(t *testing.T) {
	// Drive a synthetic size through APM decisions: segments repeatedly
	// split at bounds must end up within [Mmin, Mmax] — the convergence
	// property claimed in §3.2.2. Simulated on sizes only: each rule-2
	// split of a segment of size z yields pieces >= Mmin, each rule-3 mean
	// split halves z; splitting stops once z <= Mmax... so any segment
	// still splittable has z > Mmax and will shrink. Verify the fixpoint:
	// no decision other than NoSplit is possible once z < Mmin, and mean
	// splits keep halving while z > Mmax.
	a := NewAPM(1000, 4000)
	z := int64(100_000)
	rngHi := domain.Value(z) // 1 byte per domain value for simplicity
	steps := 0
	for z > a.Mmax && steps < 64 {
		s := seg(0, rngHi-1, z, 1_000_000)
		d := a.Decide(domain.NewRange(0, 0), s) // worst case: point query at edge
		if d.Action != SplitPoint {
			t.Fatalf("large segment (z=%d) must still split, got %v", z, d.Action)
		}
		// Take the piece containing the query (left of the mean).
		z = z / 2
		rngHi = rngHi / 2
		steps++
	}
	if z > a.Mmax {
		t.Errorf("did not converge below Mmax: %d", z)
	}
	if z < a.Mmin {
		t.Errorf("converged below Mmin: %d", z)
	}
}

func TestNeverModel(t *testing.T) {
	m := Never{}
	if m.Name() != "Never" {
		t.Error("name")
	}
	s := seg(0, 999, 4000, 4000)
	if d := m.Decide(domain.NewRange(10, 20), s); d.Action != NoSplit {
		t.Error("Never must not split")
	}
}

func TestAlwaysModel(t *testing.T) {
	m := Always{}
	if m.Name() != "Always" {
		t.Error("name")
	}
	s := seg(0, 999, 4000, 4000)
	if d := m.Decide(domain.NewRange(10, 20), s); d.Action != SplitBounds {
		t.Error("Always must split when splittable")
	}
	if d := m.Decide(domain.NewRange(0, 2000), s); d.Action != NoSplit {
		t.Error("Always must not split covers-all")
	}
}

func TestActionString(t *testing.T) {
	if NoSplit.String() != "no-split" || SplitBounds.String() != "split-bounds" ||
		SplitPoint.String() != "split-point" || Action(7).String() != "Action(7)" {
		t.Error("action names wrong")
	}
}

func TestEstBytesProportional(t *testing.T) {
	s := seg(0, 999, 1000, 10_000)
	if got := s.estBytes(domain.NewRange(0, 499)); got != 500 {
		t.Errorf("estBytes half = %d", got)
	}
	if got := s.estBytes(domain.NewRange(2000, 3000)); got != 0 {
		t.Errorf("estBytes disjoint = %d", got)
	}
}
