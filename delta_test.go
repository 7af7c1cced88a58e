package selforg_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"selforg"
	"selforg/internal/sim"
)

func sortInts(vs []int64) []int64 {
	out := append([]int64(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func intsEq(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDeltaMergeOverlayEquivalence is the satellite equivalence matrix:
// for every strategy × model × compression combination, an identical
// write batch is applied to two identical columns; one serves queries
// through the delta overlay, the other after a forced merge-back. Both
// must return exactly the same rows for every probe query, and both must
// equal the brute-force expectation.
func TestDeltaMergeOverlayEquivalence(t *testing.T) {
	const (
		n      = 2_000
		domLo  = 0
		domHi  = 49_999
		writes = 120
	)
	strategies := []selforg.Strategy{selforg.Segmentation, selforg.Replication}
	models := []selforg.Model{selforg.APM, selforg.GD, selforg.None}
	compressions := []selforg.Compression{
		selforg.CompressionOff, selforg.CompressionAuto, selforg.CompressionRLE,
	}
	probes := [][2]int64{
		{domLo, domHi}, {1_000, 5_999}, {20_000, 29_999}, {45_000, 49_999}, {7, 7},
	}

	for _, strat := range strategies {
		for _, mod := range models {
			for _, comp := range compressions {
				name := fmt.Sprintf("%v-%v-%v", strat, mod, comp)
				t.Run(name, func(t *testing.T) {
					rnd := rand.New(rand.NewSource(99))
					vals := make([]int64, n)
					for i := range vals {
						vals[i] = rnd.Int63n(domHi + 1)
					}
					// expected mirrors the writes on a plain multiset.
					expected := append([]int64(nil), vals...)
					mk := func() *selforg.Column {
						col, err := selforg.New(selforg.Interval{Lo: domLo, Hi: domHi},
							append([]int64(nil), vals...), selforg.Options{
								Strategy:      strat,
								Model:         mod,
								Compression:   comp,
								APMMin:        512,
								APMMax:        4 * 1024,
								DeltaMaxBytes: -1,
								DeltaMaxRatio: -1,
							})
						if err != nil {
							t.Fatal(err)
						}
						return col
					}
					overlay, merged := mk(), mk()

					removeOne := func(v int64) bool {
						for i, x := range expected {
							if x == v {
								expected[i] = expected[len(expected)-1]
								expected = expected[:len(expected)-1]
								return true
							}
						}
						return false
					}
					apply := func(col *selforg.Column, track bool) {
						wrnd := rand.New(rand.NewSource(7))
						for i := 0; i < writes; i++ {
							switch wrnd.Intn(4) {
							case 0, 1:
								v := wrnd.Int63n(domHi + 1)
								if _, err := col.Insert(v); err != nil {
									t.Fatal(err)
								}
								if track {
									expected = append(expected, v)
								}
							case 2:
								old := vals[wrnd.Intn(len(vals))]
								new := wrnd.Int63n(domHi + 1)
								ok, _, _ := col.Update(old, new)
								if track && ok {
									if !removeOne(old) {
										t.Fatalf("column accepted update of %d, expectation disagrees", old)
									}
									expected = append(expected, new)
								}
							default:
								v := vals[wrnd.Intn(len(vals))]
								ok, _, _ := col.Delete(v)
								if track && ok {
									if !removeOne(v) {
										t.Fatalf("column accepted delete of %d, expectation disagrees", v)
									}
								}
							}
						}
					}
					apply(overlay, true)
					apply(merged, false)
					if _, err := merged.MergeDeltas(); err != nil {
						t.Fatal(err)
					}
					if p := merged.DeltaStats().Pending; p != 0 {
						t.Fatalf("pending after forced merge: %d", p)
					}

					for _, p := range probes {
						a, _ := overlay.Select(p[0], p[1])
						b, _ := merged.Select(p[0], p[1])
						if !intsEq(sortInts(a), sortInts(b)) {
							t.Fatalf("probe [%d,%d]: overlay %d rows != merged %d rows",
								p[0], p[1], len(a), len(b))
						}
						ca, _ := overlay.Count(p[0], p[1])
						cb, _ := merged.Count(p[0], p[1])
						if ca != int64(len(a)) || cb != int64(len(b)) {
							t.Fatalf("probe [%d,%d]: counts (%d, %d) disagree with selects (%d, %d)",
								p[0], p[1], ca, cb, len(a), len(b))
						}
					}
					// Full-domain check against the brute-force expectation.
					full, _ := overlay.Select(domLo, domHi)
					if !intsEq(sortInts(full), sortInts(expected)) {
						t.Fatalf("overlay column diverged from expectation: %d vs %d rows",
							len(full), len(expected))
					}
					if err := overlay.Validate(); err != nil {
						t.Fatal(err)
					}
					if err := merged.Validate(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestDeltaVisibilityAcrossViews pins views around writes and checks the
// MVCC rule on the public surface: writes are visible to views pinned
// after them, invisible to views pinned before.
func TestDeltaVisibilityAcrossViews(t *testing.T) {
	col, err := selforg.New(selforg.Interval{Lo: 0, Hi: 999}, []int64{1, 2, 3},
		selforg.Options{DeltaMaxBytes: -1, DeltaMaxRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	before := col.View()
	if _, err := col.Insert(4); err != nil {
		t.Fatal(err)
	}
	if ok, _, _ := col.Delete(2); !ok {
		t.Fatal("delete refused")
	}
	after := col.View()
	if got := sortInts(before.Select(0, 999)); !intsEq(got, []int64{1, 2, 3}) {
		t.Fatalf("pre-write view = %v", got)
	}
	if got := sortInts(after.Select(0, 999)); !intsEq(got, []int64{1, 3, 4}) {
		t.Fatalf("post-write view = %v", got)
	}
	if before.Watermark() >= after.Watermark() {
		t.Fatal("watermark did not advance across writes")
	}
	if _, err := col.MergeDeltas(); err != nil {
		t.Fatal(err)
	}
	if got := sortInts(before.Select(0, 999)); !intsEq(got, []int64{1, 2, 3}) {
		t.Fatalf("segmentation view perturbed by merge: %v", got)
	}
}

// TestDeltaMixedSimExperiment smoke-runs the sim mixed driver: the
// acceptance-criteria path (multi-client mixed workload, merge churn,
// post-merge reorganization).
func TestDeltaMixedSimExperiment(t *testing.T) {
	cfg := sim.MixedConfig{Config: sim.DefaultConfig(), WriteRatio: 0.3}
	cfg.DeltaMaxBytes = 256
	cfg.NumQueries = 800
	cfg.Clients = 4
	r := sim.RunMixed(cfg)
	if r.Writes == 0 || r.Queries == 0 {
		t.Fatalf("mixed run executed %d queries, %d writes", r.Queries, r.Writes)
	}
	if r.Delta.Merges == 0 {
		t.Fatalf("mixed run drove no merge-backs: %+v", r.Delta)
	}
	if r.Stats.Splits == 0 {
		t.Fatal("mixed run drove no reorganization")
	}
}

// TestDeltaEncodingBreakdown checks the per-encoding counters satellite
// on the public surface: a compressed column reports non-plain segments
// and the breakdown sums to the column's layout.
func TestDeltaEncodingBreakdown(t *testing.T) {
	vals := make([]int64, 4_000)
	for i := range vals {
		vals[i] = int64(i % 8 * 100) // low cardinality: RLE/dict territory
	}
	col, err := selforg.New(selforg.Interval{Lo: 0, Hi: 999}, vals, selforg.Options{
		Compression: selforg.CompressionAuto,
		APMMin:      512,
		APMMax:      4 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	for lo := int64(0); lo < 900; lo += 50 {
		col.Select(lo, lo+99)
	}
	rows := col.EncodingBreakdown()
	if len(rows) != 4 {
		t.Fatalf("breakdown rows = %d, want 4", len(rows))
	}
	segs, bytes, nonPlain := 0, int64(0), 0
	for _, r := range rows {
		segs += r.Segments
		bytes += r.Bytes
		if r.Encoding != "plain" && r.Segments > 0 {
			nonPlain += r.Segments
		}
	}
	if segs != col.SegmentCount() {
		t.Fatalf("breakdown segments %d != column segments %d", segs, col.SegmentCount())
	}
	if bytes != col.StorageBytes() {
		t.Fatalf("breakdown bytes %d != storage bytes %d", bytes, col.StorageBytes())
	}
	if nonPlain == 0 {
		t.Fatal("adaptive compression on categorical data produced no encoded segments")
	}
}

// TestDeltaAdaptiveParallelismEquivalence checks the Parallelism == 0
// satellite: adaptive fan-out must stay byte-identical to forced-serial
// execution.
func TestDeltaAdaptiveParallelismEquivalence(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	vals := make([]int64, 50_000)
	for i := range vals {
		vals[i] = rnd.Int63n(1_000_000)
	}
	mk := func(par int) *selforg.Column {
		col, err := selforg.New(selforg.Interval{Lo: 0, Hi: 999_999},
			append([]int64(nil), vals...), selforg.Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	adaptive, serial := mk(0), mk(1)
	for i := 0; i < 100; i++ {
		lo := rnd.Int63n(900_000)
		hi := lo + 99_999
		a, ast := adaptive.Select(lo, hi)
		s, sst := serial.Select(lo, hi)
		if !intsEq(sortInts(a), sortInts(s)) {
			t.Fatalf("query %d: adaptive and serial results differ", i)
		}
		if ast.ReadBytes != sst.ReadBytes || ast.Splits != sst.Splits {
			t.Fatalf("query %d: stats differ: %+v vs %+v", i, ast, sst)
		}
	}
	if adaptive.SegmentCount() != serial.SegmentCount() {
		t.Fatalf("layouts diverged: %d vs %d segments",
			adaptive.SegmentCount(), serial.SegmentCount())
	}
}

// raceEnabled is set by race_test.go under -race, which changes what
// allocates.
var raceEnabled bool

// TestPointWriteAllocations pins what BenchmarkDeltaInsert's in-memory
// point write costs on the heap: the delta entry, its live-insert index
// slot and the snapshot the store publishes, plus the router's result
// slice and its one sub-batch buffer — at most 5 allocations a write,
// with one write body per layer.
func TestPointWriteAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	col := benchColumn(t, selforg.Options{DeltaMaxBytes: -1, DeltaMaxRatio: -1})
	rnd := rand.New(rand.NewSource(2))
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := col.Insert(rnd.Int63n(1_000_000)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Fatalf("a point insert makes %.0f allocations, want at most 5", allocs)
	}
}
