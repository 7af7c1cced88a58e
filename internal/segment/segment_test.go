package segment

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"selforg/internal/domain"
)

func vals(vs ...int64) []domain.Value {
	out := make([]domain.Value, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}

func sortedCopy(vs []domain.Value) []domain.Value {
	out := append([]domain.Value(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameMultiset(a, b []domain.Value) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := sortedCopy(a), sortedCopy(b)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestNewMaterialized(t *testing.T) {
	s := NewMaterialized(domain.NewRange(0, 9), vals(1, 5, 9))
	if s.Virtual {
		t.Error("materialized segment marked virtual")
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d", s.Count())
	}
	if s.Bytes(4) != 12 {
		t.Errorf("Bytes = %d", s.Bytes(4))
	}
}

func TestNewMaterializedPanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range value did not panic")
		}
	}()
	NewMaterialized(domain.NewRange(0, 9), vals(10))
}

func TestNewVirtual(t *testing.T) {
	s := NewVirtual(domain.NewRange(0, 99), 50)
	if !s.Virtual || s.Count() != 50 {
		t.Errorf("virtual = %v count = %d", s.Virtual, s.Count())
	}
	if s.Bytes(4) != 200 {
		t.Errorf("Bytes = %d", s.Bytes(4))
	}
}

func TestNewVirtualClampsNegative(t *testing.T) {
	s := NewVirtual(domain.NewRange(0, 9), -5)
	if s.Count() != 0 {
		t.Errorf("negative estimate not clamped: %d", s.Count())
	}
}

// TestEstimatePiece holds the uniform estimate to within one of its exact
// floor, Count × overlap width / range width (float64 widths round), on
// narrow extents and on the wide ones where the product leaves int64 and
// Width wraps: ±2^62 and the full int64 extent.
func TestEstimatePiece(t *testing.T) {
	const m = 1_000_000
	full := domain.Range{Lo: math.MinInt64, Hi: math.MaxInt64}
	cases := []struct {
		name  string
		rng   domain.Range
		count int64
		piece domain.Range
		want  int64
	}{
		{"lower half", domain.NewRange(0, 99), 100, domain.NewRange(0, 49), 50},
		{"tail", domain.NewRange(0, 99), 100, domain.NewRange(90, 99), 10},
		{"disjoint", domain.NewRange(0, 99), 100, domain.NewRange(200, 300), 0},
		{"empty piece", domain.NewRange(0, 99), 100, domain.Empty(), 0},
		{"covering piece", domain.NewRange(0, 99), 100, full, 100},
		{"2^61 lower half", domain.NewRange(0, 1<<61), m, domain.NewRange(0, 1<<60), 500_000},
		{"±2^62 lower half", domain.NewRange(-1<<62, 1<<62), m, domain.NewRange(-1<<62, -1), 499_999},
		{"±2^62 upper half", domain.NewRange(-1<<62, 1<<62), m, domain.NewRange(0, 1<<62), 500_000},
		{"±2^62 whole", domain.NewRange(-1<<62, 1<<62), m, domain.NewRange(-1<<62, 1<<62), m},
		{"full extent lower half", full, m, domain.NewRange(math.MinInt64, -1), 500_000},
		{"full extent but one value", full, m, domain.NewRange(math.MinInt64, math.MaxInt64-1), m - 1},
		{"full extent one value", full, m, domain.NewRange(7, 7), 0},
		{"full extent whole", full, m, full, m},
		{"full extent, MaxInt64 rows", full, math.MaxInt64, domain.NewRange(0, math.MaxInt64), 1<<62 - 1},
		{"full extent but one value, MaxInt64 rows", full, math.MaxInt64, domain.NewRange(math.MinInt64, math.MaxInt64-1), math.MaxInt64 - 1},
	}
	for _, c := range cases {
		got := NewVirtual(c.rng, c.count).EstimatePiece(c.piece)
		if got < 0 || got > c.count || got < c.want-1 || got > c.want+1 {
			t.Errorf("%s: EstimatePiece(%v) of %d over %v = %d, want %d", c.name, c.piece, c.count, c.rng, got, c.want)
		}
	}
}

// partition cuts s three ways by query range q through Split, the way
// the Segmenter does, returning the payloads as left, mid and right —
// nil for a side q leaves no piece on.
func partition(s *Segment, q domain.Range) (left, mid, right []domain.Value) {
	sp := domain.Cut(s.Rng, q)
	pieces := s.Split(sp.Cuts()...)
	if !sp.Left.IsEmpty() {
		left, pieces = pieces[0].Vals, pieces[1:]
	}
	if !sp.Right.IsEmpty() {
		right = pieces[1].Vals
	}
	return left, pieces[0].Vals, right
}

func TestPartitionThreeWay(t *testing.T) {
	s := NewMaterialized(domain.NewRange(0, 99), vals(5, 20, 40, 60, 80, 95))
	left, mid, right := partition(s, domain.NewRange(30, 70))
	if !sameMultiset(left, vals(5, 20)) {
		t.Errorf("left = %v", left)
	}
	if !sameMultiset(mid, vals(40, 60)) {
		t.Errorf("mid = %v", mid)
	}
	if !sameMultiset(right, vals(80, 95)) {
		t.Errorf("right = %v", right)
	}
}

func TestPartitionCoversAll(t *testing.T) {
	s := NewMaterialized(domain.NewRange(10, 20), vals(10, 15, 20))
	left, mid, right := partition(s, domain.NewRange(0, 100))
	if left != nil || right != nil {
		t.Errorf("left/right = %v/%v, want nil", left, right)
	}
	if !sameMultiset(mid, vals(10, 15, 20)) {
		t.Errorf("mid = %v", mid)
	}
}

func TestPartitionVirtualPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Split on virtual did not panic")
		}
	}()
	NewVirtual(domain.NewRange(0, 9), 5).Split(5)
}

func TestSelect(t *testing.T) {
	s := NewMaterialized(domain.NewRange(0, 99), vals(1, 50, 51, 99))
	got := s.Select(domain.NewRange(50, 60))
	if !sameMultiset(got, vals(50, 51)) {
		t.Errorf("Select = %v", got)
	}
}

func TestSplitAt(t *testing.T) {
	s := NewMaterialized(domain.NewRange(0, 99), vals(10, 50, 51, 90))
	pieces := s.Split(50)
	left, right := pieces[0].Vals, pieces[1].Vals
	if !sameMultiset(left, vals(10, 50)) {
		t.Errorf("left = %v", left)
	}
	if !sameMultiset(right, vals(51, 90)) {
		t.Errorf("right = %v", right)
	}
}

func TestSplitAtPanicsOutsideInterior(t *testing.T) {
	s := NewMaterialized(domain.NewRange(0, 99), nil)
	for _, cuts := range [][]domain.Value{{-1}, {99}, {200}, {50, 50}, {60, 40}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Split(%v) did not panic", cuts)
				}
			}()
			s.Split(cuts...)
		}()
	}
}

func TestMeanValue(t *testing.T) {
	s := NewMaterialized(domain.NewRange(0, 100), nil)
	if m := s.MeanValue(); m != 50 {
		t.Errorf("mean = %d", m)
	}
}

func TestSegmentString(t *testing.T) {
	m := NewMaterialized(domain.NewRange(0, 9), vals(1))
	v := NewVirtual(domain.NewRange(10, 19), 7)
	if m.String() != "mat[0, 9]#1" {
		t.Errorf("mat string = %q", m.String())
	}
	if v.String() != "vir[10, 19]#7" {
		t.Errorf("vir string = %q", v.String())
	}
}

// --- List tests ---

func newTestList() *List {
	// 20 values spread over [0, 99].
	vs := make([]domain.Value, 0, 20)
	for i := int64(0); i < 20; i++ {
		vs = append(vs, i*5)
	}
	return NewList(domain.NewRange(0, 99), vs, 4)
}

func TestNewListSingleSegment(t *testing.T) {
	l := newTestList()
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.TotalCount() != 20 {
		t.Errorf("TotalCount = %d", l.TotalCount())
	}
	if l.TotalBytes() != 80 {
		t.Errorf("TotalBytes = %d", l.TotalBytes())
	}
	if !l.Extent().Equal(domain.NewRange(0, 99)) {
		t.Errorf("Extent = %v", l.Extent())
	}
}

func TestListReplaceAndOverlapping(t *testing.T) {
	l := newTestList()
	s := l.Seg(0)
	l = l.Replaced(0, s.Split(29, 59)...)
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	lo, hi := l.Overlapping(domain.NewRange(30, 59))
	if lo != 1 || hi != 2 {
		t.Errorf("Overlapping exact = [%d, %d), want [1, 2)", lo, hi)
	}
	lo, hi = l.Overlapping(domain.NewRange(25, 65))
	if lo != 0 || hi != 3 {
		t.Errorf("Overlapping straddle = [%d, %d), want [0, 3)", lo, hi)
	}
	lo, hi = l.Overlapping(domain.NewRange(60, 60))
	if lo != 2 || hi != 3 {
		t.Errorf("Overlapping point = [%d, %d), want [2, 3)", lo, hi)
	}
}

func TestListOverlappingEmptyQuery(t *testing.T) {
	l := newTestList()
	lo, hi := l.Overlapping(domain.Empty())
	if lo != hi {
		t.Errorf("empty query overlap = [%d, %d)", lo, hi)
	}
}

func TestListReplacePanicsOnBadTiling(t *testing.T) {
	l := newTestList()
	defer func() {
		if recover() == nil {
			t.Fatal("bad tiling did not panic")
		}
	}()
	l = l.Replaced(0,
		NewMaterialized(domain.NewRange(0, 29), nil),
		NewMaterialized(domain.NewRange(40, 99), nil), // gap 30..39
	)
}

func TestListReplacePanicsOnWrongBounds(t *testing.T) {
	l := newTestList()
	defer func() {
		if recover() == nil {
			t.Fatal("wrong bounds did not panic")
		}
	}()
	l = l.Replaced(0, NewMaterialized(domain.NewRange(0, 50), nil))
}

func TestListGlue(t *testing.T) {
	l := newTestList()
	s := l.Seg(0)
	l = l.Replaced(0, s.Split(29, 59)...)
	before := l.TotalCount()
	l = l.Glued(0, 1)
	if l.Len() != 2 {
		t.Fatalf("Len after glue = %d", l.Len())
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.TotalCount() != before {
		t.Errorf("glue changed count: %d != %d", l.TotalCount(), before)
	}
	if !l.Seg(0).Rng.Equal(domain.NewRange(0, 59)) {
		t.Errorf("glued range = %v", l.Seg(0).Rng)
	}
}

func TestListGluePanics(t *testing.T) {
	l := newTestList()
	defer func() {
		if recover() == nil {
			t.Fatal("Glue(0,0) did not panic")
		}
	}()
	l = l.Glued(0, 0)
}

func TestListSegmentBytes(t *testing.T) {
	l := newTestList()
	bs := l.SegmentBytes()
	if len(bs) != 1 || bs[0] != 80 {
		t.Errorf("SegmentBytes = %v", bs)
	}
}

func TestListDump(t *testing.T) {
	l := newTestList()
	if l.Dump() != "[0, 99]#20" {
		t.Errorf("Dump = %q", l.Dump())
	}
}

func TestValidateCatchesVirtual(t *testing.T) {
	l := newTestList()
	l.segs[0] = NewVirtual(domain.NewRange(0, 99), 5)
	if err := l.Validate(); err == nil {
		t.Error("Validate accepted a virtual segment in a flat list")
	}
}

func TestValidateCatchesGap(t *testing.T) {
	l := newTestList()
	l.segs = []*Segment{
		NewMaterialized(domain.NewRange(0, 10), nil),
		NewMaterialized(domain.NewRange(20, 99), nil),
	}
	if err := l.Validate(); err == nil {
		t.Error("Validate accepted a gap")
	}
}

// --- property tests ---

func TestPartitionPropertyMultisetPreserved(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	f := func() bool {
		n := r.Intn(200)
		rng := domain.NewRange(0, 999)
		vs := make([]domain.Value, n)
		for i := range vs {
			vs[i] = r.Int63n(1000)
		}
		s := NewMaterialized(rng, vs)
		a, b := r.Int63n(1000), r.Int63n(1000)
		if a > b {
			a, b = b, a
		}
		q := domain.Range{Lo: a, Hi: b}
		left, mid, right := partition(s, q)
		union := append(append(append([]domain.Value{}, left...), mid...), right...)
		if !sameMultiset(union, vs) {
			return false
		}
		sp := domain.Cut(rng, q)
		for _, v := range left {
			if !sp.Left.Contains(v) {
				return false
			}
		}
		for _, v := range mid {
			if !sp.Overlap.Contains(v) {
				return false
			}
		}
		for _, v := range right {
			if !sp.Right.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestListPropertyRandomSplitsKeepInvariants(t *testing.T) {
	// Repeatedly split random segments at random query ranges; the list
	// must keep adjacency/coverage/value-bounds invariants and preserve the
	// total multiset of values.
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		dom := domain.NewRange(0, 9999)
		vs := make([]domain.Value, 500)
		for i := range vs {
			vs[i] = r.Int63n(10000)
		}
		orig := sortedCopy(vs)
		l := NewList(dom, vs, 4)
		for step := 0; step < 40; step++ {
			a, b := r.Int63n(10000), r.Int63n(10000)
			if a > b {
				a, b = b, a
			}
			q := domain.Range{Lo: a, Hi: b}
			lo, hi := l.Overlapping(q)
			if lo >= hi {
				continue
			}
			i := lo + r.Intn(hi-lo)
			s := l.Seg(i)
			sp := domain.Cut(s.Rng, q)
			if sp.Left.IsEmpty() && sp.Right.IsEmpty() {
				continue
			}
			l = l.Replaced(i, s.Split(sp.Cuts()...)...)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, l.Dump())
		}
		var all []domain.Value
		for i := 0; i < l.Len(); i++ {
			all = append(all, l.Seg(i).Vals...)
		}
		if !sameMultiset(all, orig) {
			t.Fatalf("trial %d: multiset not preserved", trial)
		}
	}
}

func TestOverlappingPropertyMatchesLinearScan(t *testing.T) {
	// Property: binary-search overlap lookup agrees with a linear scan.
	r := rand.New(rand.NewSource(44))
	l := newTestList()
	// Build a multi-segment list first.
	l = l.Replaced(0,
		NewMaterialized(domain.NewRange(0, 9), nil),
		NewMaterialized(domain.NewRange(10, 39), nil),
		NewMaterialized(domain.NewRange(40, 64), nil),
		NewMaterialized(domain.NewRange(65, 99), nil),
	)
	f := func() bool {
		a, b := r.Int63n(120)-10, r.Int63n(120)-10
		if a > b {
			a, b = b, a
		}
		q := domain.Range{Lo: a, Hi: b}
		lo, hi := l.Overlapping(q)
		for i := 0; i < l.Len(); i++ {
			overlaps := l.Seg(i).Rng.Overlaps(q)
			inWindow := i >= lo && i < hi
			if overlaps != inWindow {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
