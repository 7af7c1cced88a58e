package selforg

// Facade-level tests of the domain-sharding subsystem (Options.Shards):
// equivalence of sharded and unsharded columns across strategy × model ×
// compression, and the sharded multi-scanner/multi-writer stress run
// that CI replays under the race detector (go test -race -run Shard).

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"selforg/internal/domain"
	"selforg/internal/sim"
	"selforg/internal/workload"
)

var shardDom = domain.NewRange(0, 199_999)

func shardTestColumn(t testing.TB, opts Options, seed int64) *Column {
	t.Helper()
	vals := sim.GenerateColumn(20_000, shardDom, seed)
	col, err := New(Interval{shardDom.Lo, shardDom.Hi}, vals, opts)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func sortedVals(vals []int64) []int64 {
	out := append([]int64(nil), vals...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestShardedFacadeShardsOneIsUnsharded: Options.Shards 1 and 0 build
// the same column — a one-shard router over one strategy — so results,
// stats and layout are byte-identical over any query stream (the router
// itself is held to the bare strategy by internal/shard's
// TestShardSingleShardByteIdentical).
func TestShardedFacadeShardsOneIsUnsharded(t *testing.T) {
	for _, strat := range []Strategy{Segmentation, Replication} {
		for _, m := range []Model{APM, GD} {
			t.Run(fmt.Sprintf("%v/%v", strat, m), func(t *testing.T) {
				base := shardTestColumn(t, Options{Strategy: strat, Model: m}, 1)
				one := shardTestColumn(t, Options{Strategy: strat, Model: m, Shards: 1}, 1)
				if base.Shards() != 1 || one.Shards() != 1 {
					t.Fatalf("shard counts: %d, %d", base.Shards(), one.Shards())
				}
				gen := workload.NewUniform(shardDom, 20_000, 2)
				for q := 0; q < 120; q++ {
					qq := gen.Next()
					wantV, wantSt := base.Select(qq.Lo, qq.Hi)
					gotV, gotSt := one.Select(qq.Lo, qq.Hi)
					if !reflect.DeepEqual(wantV, gotV) {
						t.Fatalf("query %d: results diverge", q)
					}
					if wantSt != gotSt {
						t.Fatalf("query %d: stats diverge\n%+v\n%+v", q, wantSt, gotSt)
					}
				}
				if base.Layout() != one.Layout() {
					t.Fatal("layouts diverge")
				}
			})
		}
	}
}

// TestShardedFacadeWideExtents: Shards: 4 over extents of 2^63 values or
// more (where Range.Width wraps) builds a column that inserts, counts and
// selects at both ends of the extent exactly like a sorted reference.
func TestShardedFacadeWideExtents(t *testing.T) {
	extents := []Interval{
		{math.MinInt64, math.MaxInt64},
		{math.MinInt64 + 1, math.MaxInt64},
		{0, math.MaxInt64},
		{-1, math.MaxInt64},
	}
	for _, strat := range []Strategy{Segmentation, Replication} {
		for _, ext := range extents {
			rng := rand.New(rand.NewSource(7))
			var vals []int64
			for len(vals) < 20_000 {
				vals = append(vals, ext.Lo+rng.Int63n(1_000), ext.Hi-rng.Int63n(1_000))
			}
			col, err := New(ext, slices.Clone(vals), Options{Strategy: strat, Shards: 4})
			if err != nil {
				t.Fatalf("%v %v: %v", strat, ext, err)
			}
			if col.Shards() != 4 {
				t.Fatalf("%v %v: %d shards, want 4", strat, ext, col.Shards())
			}
			for _, v := range []int64{ext.Lo, ext.Lo + 1, ext.Hi - 1, ext.Hi} {
				if _, err := col.Insert(v); err != nil {
					t.Fatalf("%v %v: insert %d: %v", strat, ext, v, err)
				}
				vals = append(vals, v)
			}
			for _, q := range []Interval{
				{ext.Lo, ext.Lo}, {ext.Lo, ext.Lo + 50}, {ext.Hi, ext.Hi},
				{ext.Hi - 50, ext.Hi}, {ext.Lo + 1, ext.Hi - 1}, ext,
				{ext.Lo + 200, ext.Lo + 300}, {ext.Hi - 300, ext.Hi - 200},
			} {
				var want []int64
				for _, v := range vals {
					if q.Lo <= v && v <= q.Hi {
						want = append(want, v)
					}
				}
				slices.Sort(want)
				got, _ := col.Select(q.Lo, q.Hi)
				if slices.Sort(got); !slices.Equal(got, want) {
					t.Fatalf("%v %v: select %v returned %d rows, want %d", strat, ext, q, len(got), len(want))
				}
				if n, _ := col.Count(q.Lo, q.Hi); n != int64(len(want)) {
					t.Fatalf("%v %v: count %v = %d, want %d", strat, ext, q, n, len(want))
				}
			}
			if err := col.Validate(); err != nil {
				t.Fatalf("%v %v: %v", strat, ext, err)
			}
			// The end shards are narrower than MaxInt64 values, so they
			// adapt.
			if n := col.SegmentCount(); n <= 4 {
				t.Errorf("%v %v: %d segments over 4 shards, none split", strat, ext, n)
			}
		}
	}
}

// TestShardedFacadeEquivalence: Shards=4 returns the same result
// multiset, the same counts and a valid layout, across strategy × model ×
// compression; delta writes behave identically at the multiset level.
func TestShardedFacadeEquivalence(t *testing.T) {
	for _, strat := range []Strategy{Segmentation, Replication} {
		for _, m := range []Model{APM, GD} {
			for _, comp := range []Compression{CompressionOff, CompressionAuto} {
				t.Run(fmt.Sprintf("%v/%v/%v", strat, m, comp), func(t *testing.T) {
					opts := Options{Strategy: strat, Model: m, Compression: comp, DeltaMaxBytes: -1, DeltaMaxRatio: -1}
					flat := shardTestColumn(t, opts, 1)
					opts.Shards = 4
					sharded := shardTestColumn(t, opts, 1)
					if sharded.Shards() != 4 {
						t.Fatalf("got %d shards", sharded.Shards())
					}
					gen := workload.NewUniform(shardDom, 20_000, 2)
					wgen := workload.NewUniform(shardDom, 1, 3)
					for q := 0; q < 100; q++ {
						qq := gen.Next()
						wantV, _ := flat.Select(qq.Lo, qq.Hi)
						gotV, _ := sharded.Select(qq.Lo, qq.Hi)
						if !reflect.DeepEqual(sortedVals(wantV), sortedVals(gotV)) {
							t.Fatalf("query %d [%d,%d]: multisets diverge (%d vs %d)",
								q, qq.Lo, qq.Hi, len(gotV), len(wantV))
						}
						if q%5 == 0 {
							w := wgen.Next()
							if _, err := flat.Insert(w.Lo); err != nil {
								t.Fatal(err)
							}
							if _, err := sharded.Insert(w.Lo); err != nil {
								t.Fatal(err)
							}
							wantN, _ := flat.Count(qq.Lo, qq.Hi)
							gotN, _ := sharded.Count(qq.Lo, qq.Hi)
							if wantN != gotN {
								t.Fatalf("query %d: counts diverge %d != %d", q, gotN, wantN)
							}
						}
					}
					if _, err := flat.MergeDeltas(); err != nil {
						t.Fatal(err)
					}
					if _, err := sharded.MergeDeltas(); err != nil {
						t.Fatal(err)
					}
					wantN, _ := flat.Count(shardDom.Lo, shardDom.Hi)
					gotN, _ := sharded.Count(shardDom.Lo, shardDom.Hi)
					if wantN != gotN {
						t.Fatalf("post-merge cardinality diverges: %d != %d", gotN, wantN)
					}
					if err := sharded.Validate(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestShardedFacadeSurface covers the facade inspection surface of a
// sharded column: views, delta stats, encodings, gluing, bulk loads.
func TestShardedFacadeSurface(t *testing.T) {
	col := shardTestColumn(t, Options{Shards: 4, Compression: CompressionAuto, DeltaMaxBytes: -1, DeltaMaxRatio: -1}, 1)
	gen := workload.NewUniform(shardDom, 20_000, 2)
	for q := 0; q < 60; q++ {
		qq := gen.Next()
		col.Select(qq.Lo, qq.Hi)
	}
	v := col.View()
	if v == nil {
		t.Fatal("no view")
	}
	before := v.Count(shardDom.Lo, shardDom.Hi)
	if _, err := col.Insert(7); err != nil {
		t.Fatal(err)
	}
	if got := v.Count(shardDom.Lo, shardDom.Hi); got != before {
		t.Fatalf("pinned view moved: %d != %d", got, before)
	}
	if n, _ := col.Count(shardDom.Lo, shardDom.Hi); n != before+1 {
		t.Fatalf("live count %d, want %d", n, before+1)
	}
	if ds := col.DeltaStats(); ds.Inserts != 1 || ds.Pending != 1 {
		t.Fatalf("delta stats: %+v", ds)
	}
	if _, err := col.MergeDeltas(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, es := range col.EncodingBreakdown() {
		total += es.Segments
	}
	if total != col.SegmentCount() {
		t.Fatalf("encoding breakdown %d segments, column has %d", total, col.SegmentCount())
	}
	if _, ok := col.GlueSmall(512); !ok {
		t.Fatal("gluing refused on sharded segmentation column")
	}
	if _, err := col.BulkLoad(sim.GenerateColumn(500, shardDom, 9)); err != nil {
		t.Fatal(err)
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
	if col.TreeDepth() != 0 || col.VirtualCount() != 0 {
		t.Fatal("segmentation column reports replica-tree shape")
	}
}

// TestCrossShardUpdateAtomicUnderViews pins the cross-shard atomicity
// guarantee: an update whose delete half and insert half land on
// different shards carries one column-wide commit stamp, so a pinned
// View — whose pin sweep excludes mid-flight cross-shard updates — sees
// the row in exactly one of its two homes, never zero, never both.
func TestCrossShardUpdateAtomicUnderViews(t *testing.T) {
	const shards = 4
	col := shardTestColumn(t, Options{Shards: shards}, 1)
	width := shardDom.Width() / shards
	a := shardDom.Lo + 5           // shard 0
	b := shardDom.Lo + 3*width + 5 // shard 3
	if _, err := col.Insert(a); err != nil {
		t.Fatal(err)
	}
	na, _ := col.Count(a, a)
	nb, _ := col.Count(b, b)
	base := na + nb // invariant: every snapshot sees this many a's + b's

	const toggles = 400
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < toggles; i++ {
			old, new := a, b
			if i%2 == 1 {
				old, new = b, a
			}
			if ok, _, err := col.Update(old, new); !ok || err != nil {
				panic(fmt.Sprintf("toggle %d: ok=%v err=%v", i, ok, err))
			}
		}
	}()
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := col.View()
				if v == nil {
					panic("no view")
				}
				got := v.Count(a, a) + v.Count(b, b)
				if got != base {
					panic(fmt.Sprintf("snapshot saw %d versions, want %d (zero or two visible)", got, base))
				}
			}
		}()
	}
	wg.Wait()
	na, _ = col.Count(a, a)
	nb, _ = col.Count(b, b)
	if na+nb != base {
		t.Fatalf("final %d + %d != %d", na, nb, base)
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardStressScannersAndWriters is the 8-scanner / 4-writer sharded
// stress run: writers hammer disjoint shard ranges (plus cross-shard
// updates) with merge churn while scanners sweep the whole domain. CI
// replays it under the race detector via `go test -race -run Shard`.
func TestShardStressScannersAndWriters(t *testing.T) {
	const scanners, writers = 8, 4
	col := shardTestColumn(t, Options{
		Shards:        writers,
		Compression:   CompressionAuto,
		DeltaMaxBytes: 512, // merge churn every ~128 pending entries
	}, 1)
	width := shardDom.Width() / writers
	var inserted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := shardDom.Lo + int64(w)*width
			gen := workload.NewUniform(domain.NewRange(lo, lo+width-1), 1, int64(100+w))
			for i := 0; i < 300; i++ {
				v := gen.Next().Lo
				if i%10 == 9 {
					// Occasional cross-shard update: move a row into the
					// neighbouring writer's shard.
					nv := shardDom.Lo + (v-shardDom.Lo+width)%(width*writers)
					if ok, _, _ := col.Update(v, nv); !ok {
						if _, err := col.Insert(nv); err != nil {
							panic(err)
						}
						inserted.Add(1)
					}
					continue
				}
				if _, err := col.Insert(v); err != nil {
					panic(err)
				}
				inserted.Add(1)
			}
		}(w)
	}
	for s := 0; s < scanners; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			gen := workload.NewUniform(shardDom, 40_000, int64(200+s))
			for i := 0; i < 150; i++ {
				qq := gen.Next()
				res, st := col.Select(qq.Lo, qq.Hi)
				if int64(len(res)) != st.ResultCount {
					panic(fmt.Sprintf("scanner %d: result count mismatch %d != %d",
						s, len(res), st.ResultCount))
				}
				if i%7 == 0 {
					col.Count(qq.Lo, qq.Hi)
				}
			}
		}(s)
	}
	wg.Wait()
	if _, err := col.MergeDeltas(); err != nil {
		t.Fatal(err)
	}
	want := int64(20_000) + inserted.Load()
	if n, _ := col.Count(shardDom.Lo, shardDom.Hi); n != want {
		t.Fatalf("final cardinality %d, want %d", n, want)
	}
	if ds := col.DeltaStats(); ds.Merges == 0 {
		t.Fatal("no merge churn under stress")
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
}
