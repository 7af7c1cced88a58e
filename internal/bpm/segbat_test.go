package bpm

import (
	"math/rand"
	"testing"

	"selforg/internal/bat"
	"selforg/internal/model"
)

func testSegBAT(vals ...float64) *SegmentedBAT {
	b := bat.NewDense(bat.NewDbls(vals))
	return NewSegmentedBAT("t_col", b, 0, 100, 4)
}

func TestNewSegmentedBAT(t *testing.T) {
	sb := testSegBAT(1, 50, 99)
	if sb.SegmentCount() != 1 || sb.TotalRows() != 3 || sb.TotalBytes() != 12 {
		t.Fatalf("init wrong: %s", sb.Dump())
	}
	if err := sb.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewSegmentedBATRequiresDbl(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("lng tail accepted")
		}
	}()
	NewSegmentedBAT("x", bat.NewDense(bat.NewLngs([]int64{1})), 0, 10, 4)
}

func TestSplitSegmentPartitionsByValue(t *testing.T) {
	sb := testSegBAT(5, 25, 45, 65, 85)
	rewritten := sb.splitSegment(0, 30, 60)
	if rewritten != 20 {
		t.Errorf("rewritten = %d, want 20", rewritten)
	}
	if sb.SegmentCount() != 3 {
		t.Fatalf("segments = %d: %s", sb.SegmentCount(), sb.Dump())
	}
	if err := sb.Validate(); err != nil {
		t.Fatal(err)
	}
	if sb.Segment(0).B.Len() != 2 || sb.Segment(1).B.Len() != 1 || sb.Segment(2).B.Len() != 2 {
		t.Errorf("partition sizes wrong: %s", sb.Dump())
	}
	if sb.TotalRows() != 5 {
		t.Errorf("rows lost: %d", sb.TotalRows())
	}
}

func TestSplitSegmentPanicsOnBadCut(t *testing.T) {
	sb := testSegBAT(1)
	defer func() {
		if recover() == nil {
			t.Fatal("cut at bound accepted")
		}
	}()
	sb.splitSegment(0, 0)
}

func TestOverlapping(t *testing.T) {
	sb := testSegBAT(5, 25, 45, 65, 85)
	sb.splitSegment(0, 30, 60)
	lo, hi := sb.Overlapping(35, 55)
	if lo != 1 || hi != 2 {
		t.Errorf("overlap [35,55] = [%d,%d), want [1,2)", lo, hi)
	}
	lo, hi = sb.Overlapping(0, 100)
	if lo != 0 || hi != 3 {
		t.Errorf("overlap all = [%d,%d)", lo, hi)
	}
	lo, hi = sb.Overlapping(30, 30)
	if lo != 1 || hi != 2 {
		t.Errorf("boundary overlap = [%d,%d), want [1,2)", lo, hi)
	}
}

func TestFlattenPreservesRows(t *testing.T) {
	sb := testSegBAT(5, 25, 45, 65, 85)
	sb.splitSegment(0, 50)
	f := sb.Flatten()
	if f.Len() != 5 {
		t.Fatalf("flatten len = %d", f.Len())
	}
	sum := bat.Sum(f).AsDbl()
	if sum != 5+25+45+65+85 {
		t.Errorf("flatten sum = %v", sum)
	}
}

// TestAdaptWithAlwaysSplitsAtBounds also pins Adapt's return value: the
// logical bytes (count × ElemSize) of every segment it split.
func TestAdaptWithAlwaysSplitsAtBounds(t *testing.T) {
	sb := testSegBAT(5, 25, 45, 65, 85)
	if rw := sb.Adapt(30, 60, model.Always{}); rw != 5*sb.ElemSize {
		t.Fatalf("rewrote %d bytes, want %d (the one 5-row segment)", rw, 5*sb.ElemSize)
	}
	if sb.SegmentCount() != 3 {
		t.Fatalf("segments = %d: %s", sb.SegmentCount(), sb.Dump())
	}
	if err := sb.Validate(); err != nil {
		t.Fatal(err)
	}
	// [20, 70] cuts [0,30) at 20 and [60,100) at 70 — two rows each —
	// and leaves [30,60), which it swallows, alone.
	if rw := sb.Adapt(20, 70, model.Always{}); rw != 4*sb.ElemSize {
		t.Fatalf("rewrote %d bytes, want %d (two 2-row segments): %s", rw, 4*sb.ElemSize, sb.Dump())
	}
	if got, want := sb.Dump(), "[0,20)#1 | [20,30)#1 | [30,60)#1 | [60,70)#1 | [70,100)#1"; got != want {
		t.Fatalf("layout %s, want %s", got, want)
	}
}

func TestAdaptWithNeverDoesNothing(t *testing.T) {
	sb := testSegBAT(5, 25, 45)
	if rw := sb.Adapt(10, 20, model.Never{}); rw != 0 {
		t.Errorf("Never rewrote %d bytes", rw)
	}
	if sb.SegmentCount() != 1 {
		t.Error("Never split")
	}
}

func TestAdaptRandomKeepsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = rng.Float64() * 100
	}
	sb := NewSegmentedBAT("r", bat.NewDense(bat.NewDbls(vals)), 0, 100, 4)
	m := model.NewAPM(64, 256)
	for i := 0; i < 100; i++ {
		lo := rng.Float64() * 95
		sb.Adapt(lo, lo+5, m)
		if err := sb.Validate(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if sb.TotalRows() != 2000 {
		t.Errorf("rows lost: %d", sb.TotalRows())
	}
	if sb.SegmentCount() < 2 {
		t.Error("no adaptation happened")
	}
}

func TestStore(t *testing.T) {
	st := NewStore()
	sb := testSegBAT(1)
	st.Register(sb)
	got, err := st.Take("t_col")
	if err != nil || got != sb {
		t.Fatalf("take = %v, %v", got, err)
	}
	if _, err := st.Take("missing"); err == nil {
		t.Error("missing column accepted")
	}
	if names := st.Names(); len(names) != 1 || names[0] != "t_col" {
		t.Errorf("names = %v", names)
	}
}

func TestStoreDuplicatePanics(t *testing.T) {
	st := NewStore()
	st.Register(testSegBAT(1))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate register accepted")
		}
	}()
	st.Register(testSegBAT(2))
}
