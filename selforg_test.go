package selforg

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func denseValues(n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func TestNewDefaults(t *testing.T) {
	col, err := New(Interval{0, 999}, denseValues(1000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if col.SegmentCount() != 1 {
		t.Errorf("segments = %d", col.SegmentCount())
	}
	if col.StorageBytes() != 4000 {
		t.Errorf("storage = %d", col.StorageBytes())
	}
	if col.Extent() != (Interval{0, 999}) {
		t.Errorf("extent = %v", col.Extent())
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(Interval{10, 0}, nil, Options{}); err == nil {
		t.Error("inverted extent accepted")
	}
	if _, err := New(Interval{0, 10}, []int64{11}, Options{}); err == nil {
		t.Error("out-of-extent value accepted")
	}
	if _, err := New(Interval{0, 10}, nil, Options{APMMin: 10, APMMax: 5}); err == nil {
		t.Error("inverted APM bounds accepted")
	}
	if _, err := New(Interval{0, 10}, nil, Options{Model: Model(42)}); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := New(Interval{0, 10}, nil, Options{Strategy: Strategy(42)}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestSelectCorrectness(t *testing.T) {
	for _, strat := range []Strategy{Segmentation, Replication} {
		for _, mod := range []Model{APM, GD, None} {
			vals := denseValues(2000)
			col, err := New(Interval{0, 1999}, append([]int64(nil), vals...), Options{
				Strategy: strat, Model: mod, APMMin: 64, APMMax: 256,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, st := col.Select(500, 999)
			if len(res) != 500 {
				t.Errorf("%v/%v: result = %d, want 500", strat, mod, len(res))
			}
			if st.ResultCount != 500 {
				t.Errorf("%v/%v: stats count = %d", strat, mod, st.ResultCount)
			}
			sort.Slice(res, func(i, j int) bool { return res[i] < res[j] })
			if res[0] != 500 || res[len(res)-1] != 999 {
				t.Errorf("%v/%v: bounds wrong: %d..%d", strat, mod, res[0], res[len(res)-1])
			}
		}
	}
}

func TestSelectInvertedRangeEmpty(t *testing.T) {
	col, _ := New(Interval{0, 99}, denseValues(100), Options{})
	res, st := col.Select(50, 10)
	if len(res) != 0 || st.ReadBytes != 0 {
		t.Error("inverted range should be empty and free")
	}
}

func TestAdaptationReducesReads(t *testing.T) {
	col, _ := New(Interval{0, 99_999}, denseValues(100_000), Options{
		Strategy: Segmentation, Model: APM, APMMin: 4 << 10, APMMax: 16 << 10,
	})
	_, first := col.Select(40_000, 49_999)
	var last Stats
	for i := 0; i < 4; i++ {
		_, last = col.Select(40_000, 49_999)
	}
	if last.ReadBytes >= first.ReadBytes {
		t.Errorf("reads did not shrink: %d -> %d", first.ReadBytes, last.ReadBytes)
	}
	if col.SegmentCount() < 2 {
		t.Error("no segmentation happened")
	}
}

func TestReplicationStorageAndShape(t *testing.T) {
	col, _ := New(Interval{0, 9999}, denseValues(10_000), Options{
		Strategy: Replication, Model: APM, APMMin: 256, APMMax: 1024, ElemSize: 1,
	})
	base := col.StorageBytes()
	col.Select(2000, 3999)
	if col.StorageBytes() <= base {
		t.Error("replication did not allocate replica storage")
	}
	if col.TreeDepth() < 1 {
		t.Error("replica tree has no depth")
	}
	if col.VirtualCount() == 0 {
		t.Error("no virtual segments recorded")
	}
	if col.Layout() == "" {
		t.Error("empty layout dump")
	}
}

func TestTotalsAccumulate(t *testing.T) {
	col, _ := New(Interval{0, 999}, denseValues(1000), Options{})
	col.Select(0, 100)
	col.Select(500, 600)
	if col.Queries() != 2 {
		t.Errorf("queries = %d", col.Queries())
	}
	tot := col.Totals()
	// [0,100] has 101 values, [500,600] another 101.
	if tot.ReadBytes == 0 || tot.ResultCount != 202 {
		t.Errorf("totals = %+v", tot)
	}
}

func TestCount(t *testing.T) {
	col, _ := New(Interval{0, 999}, denseValues(1000), Options{})
	n, _ := col.Count(10, 19)
	if n != 10 {
		t.Errorf("count = %d", n)
	}
}

func TestGlueSmall(t *testing.T) {
	col, _ := New(Interval{0, 9999}, denseValues(10_000), Options{
		Strategy: Segmentation, Model: GD, ElemSize: 1, GDSeed: 3,
	})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		lo := rng.Int63n(9900)
		col.Select(lo, lo+30)
	}
	before := col.SegmentCount()
	rewritten, ok := col.GlueSmall(256)
	if !ok {
		t.Fatal("segmentation column must support gluing")
	}
	if before > 4 && col.SegmentCount() >= before {
		t.Errorf("glue did not reduce fragmentation: %d -> %d (rewrote %d)",
			before, col.SegmentCount(), rewritten)
	}
	// Replication columns do not glue.
	rep, _ := New(Interval{0, 9}, denseValues(10), Options{Strategy: Replication})
	if _, ok := rep.GlueSmall(10); ok {
		t.Error("replication column claimed to glue")
	}
}

// TestNameAndStrings pins the public enums' String() output, out-of-range
// values included: the kinds live below the facade, which aliases them.
func TestNameAndStrings(t *testing.T) {
	col, _ := New(Interval{0, 9}, denseValues(10), Options{})
	if col.Name() == "" {
		t.Error("empty name")
	}
	for _, c := range []struct {
		got  fmt.Stringer
		want string
	}{
		{Segmentation, "segmentation"},
		{Replication, "replication"},
		{Strategy(0), "segmentation"},
		{Strategy(2), "Strategy(2)"},
		{Strategy(-1), "Strategy(-1)"},
		{APM, "APM"},
		{GD, "GD"},
		{None, "none"},
		{Model(0), "APM"},
		{Model(3), "Model(3)"},
		{Model(-1), "Model(-1)"},
		{CompressionOff, "off"},
		{CompressionAuto, "auto"},
		{CompressionPlain, "plain"},
		{CompressionRLE, "rle"},
		{CompressionDict, "dict"},
		{CompressionFOR, "for"},
		{Compression(6), "off"},
	} {
		if got := c.got.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.got, got, c.want)
		}
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{ReadBytes: 1, WriteBytes: 2, ResultCount: 3, Splits: 4, Drops: 5}
	b := a
	a.Add(b)
	if a.ReadBytes != 2 || a.Drops != 10 {
		t.Errorf("add = %+v", a)
	}
}

func TestFacadeExtensions(t *testing.T) {
	// Budget-limited replication through the facade.
	col, err := New(Interval{0, 9999}, denseValues(10_000), Options{
		Strategy: Replication, Model: APM, APMMin: 256, APMMax: 1024,
		ElemSize: 1, MaxStorageBytes: 12_000, MaxTreeDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		lo := rng.Int63n(9000)
		col.Select(lo, lo+999)
		if col.StorageBytes() > 12_000 {
			t.Fatalf("storage %d exceeds budget", col.StorageBytes())
		}
		if col.TreeDepth() > 4 {
			t.Fatalf("depth %d exceeds limit", col.TreeDepth())
		}
	}

	// AutoTune through the facade.
	auto, err := New(Interval{0, 49_999}, denseValues(50_000), Options{
		Strategy: Segmentation, Model: APM, AutoTune: true,
		APMMin: 64, APMMax: 1 << 20, ElemSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		lo := rng.Int63n(48_000)
		res, _ := auto.Select(lo, lo+999)
		if len(res) != 1000 {
			t.Fatalf("autotuned select returned %d rows", len(res))
		}
	}
	if auto.SegmentCount() < 2 {
		t.Error("autotuned column never reorganized")
	}
	if auto.Name() != "AutoAPM Segm" {
		t.Errorf("name = %q", auto.Name())
	}
}

func TestNoneModelNeverReorganizes(t *testing.T) {
	col, _ := New(Interval{0, 999}, denseValues(1000), Options{Model: None})
	for i := 0; i < 20; i++ {
		col.Select(int64(i*40), int64(i*40+39))
	}
	if col.SegmentCount() != 1 {
		t.Errorf("None model split the column: %d segments", col.SegmentCount())
	}
	if col.Totals().WriteBytes != 0 {
		t.Error("None model wrote bytes")
	}
}
