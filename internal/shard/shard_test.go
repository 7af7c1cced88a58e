package shard

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"selforg/internal/compress"
	"selforg/internal/core"
	"selforg/internal/delta"
	"selforg/internal/domain"
	"selforg/internal/model"
	"selforg/internal/result"
	"selforg/internal/workload"
)

// testDom is a small domain so boundary geometry is easy to reason about.
var testDom = domain.NewRange(0, 99_999)

// genValues draws n uniform values over dom (the sim generator, inlined:
// the sim package imports this one, so tests here cannot import it back).
func genValues(n int, dom domain.Range, seed int64) []domain.Value {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]domain.Value, n)
	for i := range vals {
		vals[i] = dom.Lo + rng.Int63n(dom.Width())
	}
	return vals
}

func testValues(n int, seed int64) []domain.Value {
	return genValues(n, testDom, seed)
}

// segBuilder returns a Builder producing APM Segmenters (fresh model per
// shard) under the given compression mode.
func segBuilder(mode compress.Mode) Builder {
	return func(idx int, rng domain.Range, vals []domain.Value) core.DeltaStrategy {
		s := core.NewSegmenter(rng, vals, 4, model.NewAPM(600, 2400), nil)
		s.SetCompression(mode)
		return s
	}
}

// replBuilder returns a Builder producing APM Replicators.
func replBuilder(mode compress.Mode) Builder {
	return func(idx int, rng domain.Range, vals []domain.Value) core.DeltaStrategy {
		r := core.NewReplicator(rng, vals, 4, model.NewAPM(600, 2400), nil)
		r.SetCompression(mode)
		return r
	}
}

func sorted(vals []domain.Value) []domain.Value {
	out := append([]domain.Value(nil), vals...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestShardPartition(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 7, 16} {
		ranges := Partition(testDom, k)
		if len(ranges) != k {
			t.Fatalf("k=%d: got %d ranges", k, len(ranges))
		}
		if ranges[0].Lo != testDom.Lo || ranges[len(ranges)-1].Hi != testDom.Hi {
			t.Fatalf("k=%d: ranges %v do not tile %v", k, ranges, testDom)
		}
		var width int64
		for i, r := range ranges {
			width += r.Width()
			if i > 0 && !ranges[i-1].Adjacent(r) {
				t.Fatalf("k=%d: ranges %v and %v not adjacent", k, ranges[i-1], r)
			}
		}
		if width != testDom.Width() {
			t.Fatalf("k=%d: widths sum to %d, want %d", k, width, testDom.Width())
		}
	}
	// k above the domain width is clamped: every shard keeps at least one
	// value of domain.
	tiny := domain.NewRange(0, 2)
	if got := len(Partition(tiny, 10)); got != 3 {
		t.Fatalf("clamp: got %d ranges, want 3", got)
	}
	if got := len(Partition(testDom, 0)); got != 1 {
		t.Fatalf("k=0: got %d ranges, want 1", got)
	}
}

// TestPartitionWideExtents: extents of 2^63 values or more, where
// Range.Width wraps, still tile exactly — k non-empty adjacent ranges,
// widths within one of each other, from extent.Lo to extent.Hi.
func TestPartitionWideExtents(t *testing.T) {
	extents := []domain.Range{
		{Lo: math.MinInt64, Hi: math.MaxInt64},
		{Lo: math.MinInt64 + 1, Hi: math.MaxInt64},
		{Lo: 0, Hi: math.MaxInt64},
		{Lo: -1, Hi: math.MaxInt64},
	}
	for _, ext := range extents {
		for _, k := range []int{2, 4, 7} {
			ranges := Partition(ext, k)
			if len(ranges) != k {
				t.Fatalf("%v k=%d: got %d ranges", ext, k, len(ranges))
			}
			if ranges[0].Lo != ext.Lo || ranges[k-1].Hi != ext.Hi {
				t.Fatalf("%v k=%d: ranges %v do not start and end with the extent", ext, k, ranges)
			}
			// Widths in uint64: each is at most 2^63, and they sum to
			// the extent's width modulo 2^64.
			var sum, minW, maxW uint64
			minW = math.MaxUint64
			for i, r := range ranges {
				if r.IsEmpty() {
					t.Fatalf("%v k=%d: range %d %v is empty", ext, k, i, r)
				}
				if i > 0 && (ranges[i-1].Hi >= r.Lo || r.Lo-ranges[i-1].Hi != 1) {
					t.Fatalf("%v k=%d: ranges %v and %v not adjacent", ext, k, ranges[i-1], r)
				}
				w := uint64(r.Hi) - uint64(r.Lo) + 1
				sum += w
				minW, maxW = min(minW, w), max(maxW, w)
			}
			if want := uint64(ext.Hi) - uint64(ext.Lo) + 1; sum != want {
				t.Fatalf("%v k=%d: widths sum to %d, want %d (mod 2^64)", ext, k, sum, want)
			}
			if maxW-minW > 1 {
				t.Fatalf("%v k=%d: widths range over [%d, %d]", ext, k, minW, maxW)
			}
		}
	}
}

func TestShardSplitValuesPreservesOrder(t *testing.T) {
	ranges := Partition(testDom, 4)
	vals := testValues(10_000, 3)
	parts := SplitValues(ranges, vals)
	total := 0
	for i, part := range parts {
		total += len(part)
		for _, v := range part {
			if !ranges[i].Contains(v) {
				t.Fatalf("shard %d: value %d outside %v", i, v, ranges[i])
			}
		}
	}
	if total != len(vals) {
		t.Fatalf("scatter lost values: %d != %d", total, len(vals))
	}
	// Order preservation: re-interleaving the parts by walking the
	// original slice must consume each part front to back.
	idx := make([]int, len(parts))
	for _, v := range vals {
		i := rangeOf(ranges, v)
		if parts[i][idx[i]] != v {
			t.Fatalf("shard %d: order not preserved", i)
		}
		idx[i]++
	}
}

// singleShardIn is one step's input, drawn once and handed to both
// sides of TestShardSingleShardByteIdentical.
type singleShardIn struct {
	q     domain.Range
	v, w  domain.Value
	batch []domain.Value
	ops   []delta.Op
}

// singleShardOut is one step's outcome: every result and stat a step
// can produce, compared whole.
type singleShardOut struct {
	vals   []domain.Value
	n, sum int64
	ok     bool
	oks    []bool
	st     core.QueryStats
	err    string
}

// singleShardSteps is the surface a facade column always routes through
// its one shard, one row per operation.
var singleShardSteps = []struct {
	name string
	do   func(s core.DeltaStrategy, in singleShardIn) singleShardOut
}{
	{"select", func(s core.DeltaStrategy, in singleShardIn) (o singleShardOut) {
		o.vals, o.st = s.Select(in.q)
		return o
	}},
	{"select-rope", func(s core.DeltaStrategy, in singleShardIn) (o singleShardOut) {
		var r *result.Rope
		r, o.st = s.SelectRope(in.q)
		o.vals = r.Flatten()
		return o
	}},
	{"count", func(s core.DeltaStrategy, in singleShardIn) (o singleShardOut) {
		o.n, o.st = s.Count(in.q)
		return o
	}},
	{"sum", func(s core.DeltaStrategy, in singleShardIn) (o singleShardOut) {
		o.n, o.sum, o.st = s.Sum(in.q)
		return o
	}},
	{"insert", func(s core.DeltaStrategy, in singleShardIn) (o singleShardOut) {
		var err error
		o.st, err = s.Insert(in.v)
		o.err = fmt.Sprint(err)
		return o
	}},
	{"delete", func(s core.DeltaStrategy, in singleShardIn) (o singleShardOut) {
		var err error
		o.ok, o.st, err = s.Delete(in.v)
		o.err = fmt.Sprint(err)
		return o
	}},
	{"update", func(s core.DeltaStrategy, in singleShardIn) (o singleShardOut) {
		var err error
		o.ok, o.st, err = s.Update(in.v, in.w)
		o.err = fmt.Sprint(err)
		return o
	}},
	{"apply-ops", func(s core.DeltaStrategy, in singleShardIn) (o singleShardOut) {
		var err error
		o.oks, o.st, err = s.ApplyOps(in.ops)
		o.err = fmt.Sprint(err)
		return o
	}},
	{"bulk-load", func(s core.DeltaStrategy, in singleShardIn) (o singleShardOut) {
		var err error
		o.st, err = s.BulkLoad(in.batch)
		o.err = fmt.Sprint(err)
		return o
	}},
	{"merge-deltas", func(s core.DeltaStrategy, in singleShardIn) (o singleShardOut) {
		var err error
		o.st, err = s.MergeDeltas()
		o.err = fmt.Sprint(err)
		return o
	}},
	{"glue-small", func(s core.DeltaStrategy, in singleShardIn) (o singleShardOut) {
		o.n, o.ok = s.GlueSmall(600)
		return o
	}},
}

// TestShardSingleShardByteIdentical is the single-shard guarantee every
// facade column rests on (Build makes a one-shard Column for Shards ≤ 1):
// a 1-shard Column is byte-identical to using the strategy directly —
// per-step results and stats of every read and write, pinned views, and
// the layout, delta and encoding state they leave.
func TestShardSingleShardByteIdentical(t *testing.T) {
	type mk struct {
		name  string
		bare  func(vals []domain.Value) shardStrategy
		build Builder
	}
	cases := []mk{}
	for _, mode := range []compress.Mode{compress.Off, compress.Auto} {
		mode := mode
		cases = append(cases,
			mk{
				name: fmt.Sprintf("segm/compress=%v", mode),
				bare: func(vals []domain.Value) shardStrategy {
					s := core.NewSegmenter(testDom, vals, 4, model.NewAPM(600, 2400), nil)
					s.SetCompression(mode)
					return s
				},
				build: segBuilder(mode),
			},
			mk{
				name: fmt.Sprintf("repl/compress=%v", mode),
				bare: func(vals []domain.Value) shardStrategy {
					r := core.NewReplicator(testDom, vals, 4, model.NewAPM(600, 2400), nil)
					r.SetCompression(mode)
					return r
				},
				build: replBuilder(mode),
			},
			mk{
				name: fmt.Sprintf("segm-gd/compress=%v", mode),
				bare: func(vals []domain.Value) shardStrategy {
					s := core.NewSegmenter(testDom, vals, 4, model.NewGaussianDice(7), nil)
					s.SetCompression(mode)
					return s
				},
				build: func(idx int, rng domain.Range, vals []domain.Value) core.DeltaStrategy {
					s := core.NewSegmenter(rng, vals, 4, model.NewGaussianDice(model.ShardSeed(7, idx)), nil)
					s.SetCompression(mode)
					return s
				},
			},
		)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vals := testValues(20_000, 1)
			bare := tc.bare(append([]domain.Value(nil), vals...))
			col, err := New(testDom, append([]domain.Value(nil), vals...), 1, tc.build)
			if err != nil {
				t.Fatal(err)
			}
			gen := workload.NewUniform(testDom, 10_000, 2)
			for q := 0; q < 150; q++ {
				qq := gen.Next().Range()
				wantV, wantSt := bare.Select(qq)
				gotV, gotSt := col.Select(qq)
				if !reflect.DeepEqual(wantV, gotV) {
					t.Fatalf("query %d %v: results diverge", q, qq)
				}
				if wantSt != gotSt {
					t.Fatalf("query %d %v: stats diverge\nbare: %+v\nshard: %+v", q, qq, wantSt, gotSt)
				}
				if q%10 == 0 {
					wantN, _ := bare.Count(qq)
					gotN, _ := col.Count(qq)
					if wantN != gotN {
						t.Fatalf("query %d: count %d != %d", q, gotN, wantN)
					}
				}
			}
			// Every step of the routed surface, with a small delta budget
			// so merge-backs fire, and views pinned a round earlier read
			// alike after the round's writes.
			bare.SetDeltaPolicy(2048, 0)
			col.SetDeltaPolicy(2048, 0)
			rng := rand.New(rand.NewSource(3))
			draw := func() domain.Value { return testDom.Lo + rng.Int63n(testDom.Width()) }
			bview, cview := bare.Pin(), col.Pin()
			for round := 0; round < 12; round++ {
				for _, step := range singleShardSteps {
					in := singleShardIn{q: gen.Next().Range(), v: vals[rng.Intn(len(vals))], w: draw()}
					if step.name == "insert" {
						in.v = draw()
					}
					for i := 0; i < 20; i++ {
						in.batch = append(in.batch, draw())
					}
					for i := 0; i < 8; i++ {
						op := delta.Op{Kind: delta.OpKind(i % 3), V: vals[rng.Intn(len(vals))], New: draw()}
						if op.Kind == delta.OpInsert {
							op.V = draw()
						}
						in.ops = append(in.ops, op)
					}
					want, got := step.do(bare, in), step.do(col, in)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("round %d %s %+v: diverges\nbare:  %+v\nshard: %+v", round, step.name, in.q, want, got)
					}
				}
				q := gen.Next().Range()
				if !reflect.DeepEqual(bview.SelectRope(q).Flatten(), cview.SelectRope(q).Flatten()) ||
					bview.Count(q) != cview.Count(q) || bview.Watermark() != cview.Watermark() {
					t.Fatalf("round %d: pinned views diverge on %v", round, q)
				}
				bview, cview = bare.Pin(), col.Pin()
			}
			if ds := col.DeltaStats(); ds.Merges == 0 || ds.Deletes == 0 || ds.Updates == 0 {
				t.Fatalf("the steps left merge-backs, deletes or updates untested: %+v", ds)
			}
			if bare.Layout() != col.Layout() {
				t.Fatalf("layouts diverge:\nbare:\n%s\nshard:\n%s", bare.Layout(), col.Layout())
			}
			if bare.DeltaStats() != col.DeltaStats() {
				t.Fatalf("delta stats diverge: %+v != %+v", col.DeltaStats(), bare.DeltaStats())
			}
			if !reflect.DeepEqual(bare.EncodingStats(), col.EncodingStats()) {
				t.Fatalf("encoding stats diverge: %+v != %+v", col.EncodingStats(), bare.EncodingStats())
			}
			if bare.SegmentCount() != col.SegmentCount() {
				t.Fatalf("segment counts diverge: %d != %d", col.SegmentCount(), bare.SegmentCount())
			}
			if !reflect.DeepEqual(bare.SegmentSizes(), col.SegmentSizes()) {
				t.Fatal("segment sizes diverge")
			}
			if bare.StorageBytes() != col.StorageBytes() || bare.UncompressedBytes() != col.UncompressedBytes() {
				t.Fatal("storage accounting diverges")
			}
			if bare.Name() != col.Name() {
				t.Fatalf("names diverge: %q != %q", col.Name(), bare.Name())
			}
			if err := col.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedMatchesUnshardedResults: a K-sharded column returns the same
// result multiset and counts as the unsharded strategy for every query,
// across strategy × model × compression.
func TestShardedMatchesUnshardedResults(t *testing.T) {
	mods := map[string]func(idx int64) model.Model{
		"apm": func(int64) model.Model { return model.NewAPM(600, 2400) },
		"gd":  func(idx int64) model.Model { return model.NewGaussianDice(model.ShardSeed(7, int(idx))) },
	}
	for _, k := range []int{2, 4, 7} {
		for mname, mk := range mods {
			for _, repl := range []bool{false, true} {
				for _, mode := range []compress.Mode{compress.Off, compress.Auto} {
					name := fmt.Sprintf("k=%d/%s/repl=%v/comp=%v", k, mname, repl, mode)
					t.Run(name, func(t *testing.T) {
						vals := testValues(20_000, 1)
						build := func(idx int, rng domain.Range, svals []domain.Value) core.DeltaStrategy {
							if repl {
								r := core.NewReplicator(rng, svals, 4, mk(int64(idx)), nil)
								r.SetCompression(mode)
								return r
							}
							s := core.NewSegmenter(rng, svals, 4, mk(int64(idx)), nil)
							s.SetCompression(mode)
							return s
						}
						bare := build(0, testDom, append([]domain.Value(nil), vals...))
						col, err := New(testDom, append([]domain.Value(nil), vals...), k, build)
						if err != nil {
							t.Fatal(err)
						}
						if col.Shards() != k {
							t.Fatalf("got %d shards, want %d", col.Shards(), k)
						}
						gen := workload.NewUniform(testDom, 10_000, 2)
						for q := 0; q < 100; q++ {
							qq := gen.Next().Range()
							wantV, _ := bare.Select(qq)
							gotV, gotSt := col.Select(qq)
							if !reflect.DeepEqual(sorted(wantV), sorted(gotV)) {
								t.Fatalf("query %d %v: result multisets diverge (%d vs %d rows)",
									q, qq, len(gotV), len(wantV))
							}
							if gotSt.ResultCount != int64(len(gotV)) {
								t.Fatalf("query %d: ResultCount %d != %d", q, gotSt.ResultCount, len(gotV))
							}
							gotN, _ := col.Count(qq)
							if gotN != int64(len(wantV)) {
								t.Fatalf("query %d: count %d != %d", q, gotN, len(wantV))
							}
						}
						if err := col.Validate(); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

// TestShardRoutingEdges exercises the router's boundary geometry on a
// 4-shard column.
func TestShardRoutingEdges(t *testing.T) {
	vals := testValues(20_000, 1)
	col, err := New(testDom, vals, 4, segBuilder(compress.Off))
	if err != nil {
		t.Fatal(err)
	}
	naive := func(q domain.Range) []domain.Value {
		var out []domain.Value
		for _, v := range testValues(20_000, 1) {
			if q.Contains(v) {
				out = append(out, v)
			}
		}
		return out
	}
	b0 := col.ShardRange(0)
	b1 := col.ShardRange(1)
	queries := []domain.Range{
		testDom,                                   // spans all shards
		{Lo: b0.Hi, Hi: b1.Lo},                    // exactly straddles one boundary
		{Lo: b0.Hi + 1, Hi: b1.Hi},                // aligned to shard 1 exactly
		{Lo: b0.Lo, Hi: b0.Hi},                    // exactly shard 0
		{Lo: b1.Lo + 10, Hi: b1.Lo + 10},          // point query inside a shard
		{Lo: b0.Hi, Hi: b0.Hi},                    // point query on a boundary
		{Lo: testDom.Hi - 5, Hi: testDom.Hi + 50}, // clipped at the extent top
		{Lo: testDom.Hi + 1, Hi: testDom.Hi + 10}, // fully outside
		{Lo: 10, Hi: 5},                           // empty range
	}
	for _, q := range queries {
		got, st := col.Select(q)
		want := naive(q)
		if !reflect.DeepEqual(sorted(got), sorted(want)) {
			t.Fatalf("query %v: %d rows, want %d", q, len(got), len(want))
		}
		if st.ResultCount != int64(len(want)) {
			t.Fatalf("query %v: ResultCount %d, want %d", q, st.ResultCount, len(want))
		}
		n, _ := col.Count(q)
		if n != int64(len(want)) {
			t.Fatalf("query %v: count %d, want %d", q, n, len(want))
		}
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardEmptyShard: shards whose sub-range holds no values stay
// queryable and writable.
func TestShardEmptyShard(t *testing.T) {
	// All values in the lowest quarter: shards 1..3 are empty.
	lowDom := domain.NewRange(testDom.Lo, testDom.Hi/4)
	vals := genValues(5_000, lowDom, 1)
	col, err := New(testDom, vals, 4, segBuilder(compress.Off))
	if err != nil {
		t.Fatal(err)
	}
	hi := col.ShardRange(3)
	if got, _ := col.Select(hi); len(got) != 0 {
		t.Fatalf("empty shard returned %d rows", len(got))
	}
	if n, _ := col.Count(testDom); n != 5_000 {
		t.Fatalf("count %d, want 5000", n)
	}
	// Writes into an empty shard land and read back.
	if _, err := col.Insert(hi.Lo + 1); err != nil {
		t.Fatal(err)
	}
	if got, _ := col.Select(hi); len(got) != 1 || got[0] != hi.Lo+1 {
		t.Fatalf("insert into empty shard not visible: %v", got)
	}
	if _, err := col.MergeDeltas(); err != nil {
		t.Fatal(err)
	}
	if got, _ := col.Select(hi); len(got) != 1 || got[0] != hi.Lo+1 {
		t.Fatalf("merged insert lost: %v", got)
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardCrossShardUpdate: an update whose old and new values live in
// different shards decomposes into delete+insert and stays exact.
func TestShardCrossShardUpdate(t *testing.T) {
	vals := testValues(10_000, 1)
	col, err := New(testDom, vals, 4, segBuilder(compress.Off))
	if err != nil {
		t.Fatal(err)
	}
	old := vals[0]          // lives in some shard
	new := testDom.Hi - old // mirror value: distinct shard for most olds
	if rangeOf(col.ranges, old) == rangeOf(col.ranges, new) {
		new = col.ShardRange((rangeOf(col.ranges, old)+2)%4).Lo + 5
	}
	preOld, _ := col.Count(domain.Range{Lo: old, Hi: old})
	preNew, _ := col.Count(domain.Range{Lo: new, Hi: new})
	ok, _, _ := col.Update(old, new)
	if !ok {
		t.Fatal("update refused")
	}
	if n, _ := col.Count(domain.Range{Lo: old, Hi: old}); n != preOld-1 {
		t.Fatalf("old count %d, want %d", n, preOld-1)
	}
	if n, _ := col.Count(domain.Range{Lo: new, Hi: new}); n != preNew+1 {
		t.Fatalf("new count %d, want %d", n, preNew+1)
	}
	ds := col.DeltaStats()
	if ds.Deletes != 1 || ds.Inserts != 1 || ds.Updates != 0 {
		t.Fatalf("cross-shard update accounting: %+v", ds)
	}
	// Same-shard update stays a real single-version update.
	sameOld := new
	sameNew := sameOld + 1
	if rangeOf(col.ranges, sameOld) != rangeOf(col.ranges, sameNew) {
		sameNew = sameOld - 1
	}
	if ok, _, _ := col.Update(sameOld, sameNew); !ok {
		t.Fatal("same-shard update refused")
	}
	if ds := col.DeltaStats(); ds.Updates != 1 {
		t.Fatalf("same-shard update accounting: %+v", ds)
	}
	// Misses: values outside the extent are refused and recorded.
	if ok, _, _ := col.Delete(testDom.Hi + 100); ok {
		t.Fatal("out-of-extent delete accepted")
	}
	if ok, _, _ := col.Update(testDom.Hi+100, 5); ok {
		t.Fatal("out-of-extent update accepted")
	}
	if ds := col.DeltaStats(); ds.DeleteMisses != 2 {
		t.Fatalf("miss accounting: %+v", ds)
	}
}

// TestShardMergeBackIsolation: a merge-back draining one shard leaves a
// view pinned over another shard (and over the merged shard, for
// segmentation) untouched, while new queries see the writes.
func TestShardMergeBackIsolation(t *testing.T) {
	vals := testValues(10_000, 1)
	col, err := New(testDom, vals, 2, segBuilder(compress.Off))
	if err != nil {
		t.Fatal(err)
	}
	col.SetDeltaPolicy(0, 0) // manual merging
	r0, r1 := col.ShardRange(0), col.ShardRange(1)
	v := col.Pin()
	if v == nil {
		t.Fatal("no view")
	}
	before0 := v.Count(r0)
	before1 := v.Count(r1)
	// Write a burst into shard 1 only, then drain it.
	for i := int64(0); i < 50; i++ {
		if _, err := col.Insert(r1.Lo + i); err != nil {
			t.Fatal(err)
		}
	}
	if ds := col.Shard(0).DeltaStats(); ds.Pending != 0 {
		t.Fatalf("shard 0 store dirtied: %+v", ds)
	}
	if _, err := col.MergeDeltas(); err != nil {
		t.Fatal(err)
	}
	if ds := col.Shard(1).DeltaStats(); ds.Pending != 0 || ds.Merges != 1 {
		t.Fatalf("shard 1 merge missing: %+v", ds)
	}
	if ds := col.Shard(0).DeltaStats(); ds.Merges != 0 {
		t.Fatalf("shard 0 merged with nothing pending: %+v", ds)
	}
	// The pinned view predates the writes: both shards unchanged.
	if got := v.Count(r0); got != before0 {
		t.Fatalf("view shard 0 moved: %d != %d", got, before0)
	}
	if got := v.Count(r1); got != before1 {
		t.Fatalf("view shard 1 moved: %d != %d", got, before1)
	}
	// New queries see the merged rows.
	if n, _ := col.Count(r1); n != before1+50 {
		t.Fatalf("post-merge count %d, want %d", n, before1+50)
	}
}

// TestShardMergeWhileScanning races a merge-churning writer in shard 1
// against scanners of shard 0 — the "merge-back firing in one shard
// while another is mid-scan" edge, run under -race in CI.
func TestShardMergeWhileScanning(t *testing.T) {
	vals := testValues(20_000, 1)
	col, err := New(testDom, vals, 2, segBuilder(compress.Auto))
	if err != nil {
		t.Fatal(err)
	}
	col.SetDeltaPolicy(64, 0) // merge every 16 pending entries (4 B elems)
	r0, r1 := col.ShardRange(0), col.ShardRange(1)
	want, _ := col.Count(r0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			gen := workload.NewUniform(r0, 5_000, seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := gen.Next().Range()
				col.Select(q)
				if n, _ := col.Count(r0); n != want {
					panic(fmt.Sprintf("shard 0 cardinality moved: %d != %d", n, want))
				}
			}
		}(int64(w + 1))
	}
	for i := int64(0); i < 400; i++ {
		if _, err := col.Insert(r1.Lo + i%r1.Width()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if ds := col.Shard(1).DeltaStats(); ds.Merges == 0 {
		t.Fatal("no merge-back churn in shard 1")
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardBulkLoad scatters a batch across shards.
func TestShardBulkLoad(t *testing.T) {
	vals := testValues(10_000, 1)
	col, err := New(testDom, vals, 4, replBuilder(compress.Off))
	if err != nil {
		t.Fatal(err)
	}
	batch := testValues(1_000, 9)
	if _, err := col.BulkLoad(batch); err != nil {
		t.Fatal(err)
	}
	if n, _ := col.Count(testDom); n != 11_000 {
		t.Fatalf("count %d after bulk load, want 11000", n)
	}
	if _, err := col.BulkLoad([]domain.Value{testDom.Hi + 1}); err == nil {
		t.Fatal("out-of-extent bulk load accepted")
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkLoadMatchesMergeBack: a bulk load is the merge-back rewrite
// with no tombstones. Twin columns, adapted by the same queries with
// merging disabled, take the same batch — one through BulkLoad, the
// other as one Insert per value drained by MergeDeltas — and must end
// with the same layout and content, and with compression off the same
// storage. (Encoded sizes may differ: the merge-back appends in arrival
// order, the bulk load in sorted order.)
func TestBulkLoadMatchesMergeBack(t *testing.T) {
	for _, strat := range []struct {
		name  string
		build func(compress.Mode) Builder
	}{{"segm", segBuilder}, {"repl", replBuilder}} {
		name, build := strat.name, strat.build
		for _, mode := range []compress.Mode{compress.Off, compress.Auto} {
			for _, k := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%v/shards=%d", name, mode, k), func(t *testing.T) {
					twin := func() *Column {
						col, err := New(testDom, testValues(8_000, 1), k, build(mode))
						if err != nil {
							t.Fatal(err)
						}
						col.SetDeltaPolicy(0, 0)
						for _, q := range []domain.Range{{Lo: 10_000, Hi: 30_000}, {Lo: 55_000, Hi: 58_000}, {Lo: 70_000, Hi: 99_999}} {
							col.Select(q)
						}
						if col.SegmentCount() <= k {
							t.Fatal("setup: queries did not reorganize the column")
						}
						return col
					}
					loaded, merged := twin(), twin()
					batch := testValues(600, 9)
					if _, err := loaded.BulkLoad(batch); err != nil {
						t.Fatal(err)
					}
					for _, v := range batch {
						if _, err := merged.Insert(v); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := merged.MergeDeltas(); err != nil {
						t.Fatal(err)
					}
					if a, b := loaded.Layout(), merged.Layout(); a != b {
						t.Fatalf("layouts differ:\nbulk load:\n%s\nmerge-back:\n%s", a, b)
					}
					a, _ := loaded.Select(testDom)
					b, _ := merged.Select(testDom)
					if !reflect.DeepEqual(sorted(a), sorted(b)) {
						t.Fatalf("contents differ: %d vs %d rows", len(a), len(b))
					}
					for _, col := range []*Column{loaded, merged} {
						if err := col.Validate(); err != nil {
							t.Fatal(err)
						}
					}
					if mode == compress.Off && loaded.StorageBytes() != merged.StorageBytes() {
						t.Fatalf("storage %v (bulk load) vs %v (merge-back)", loaded.StorageBytes(), merged.StorageBytes())
					}
				})
			}
		}
	}
}

// TestShardDeltaStatsAggregation: counters sum, watermark is the shared
// column-wide commit clock's last stamped version (every shard stamps
// from one clock, so 5 + 3 inserts advance it to 8).
func TestShardDeltaStatsAggregation(t *testing.T) {
	vals := testValues(5_000, 1)
	col, err := New(testDom, vals, 4, segBuilder(compress.Off))
	if err != nil {
		t.Fatal(err)
	}
	col.SetDeltaPolicy(0, 0)
	r0, r3 := col.ShardRange(0), col.ShardRange(3)
	for i := int64(0); i < 5; i++ {
		col.Insert(r0.Lo + i)
	}
	for i := int64(0); i < 3; i++ {
		col.Insert(r3.Lo + i)
	}
	ds := col.DeltaStats()
	if ds.Inserts != 8 || ds.Pending != 8 {
		t.Fatalf("aggregate: %+v", ds)
	}
	if ds.Watermark != 8 { // the shared clock saw all 8 writes
		t.Fatalf("watermark %d, want 8", ds.Watermark)
	}
	if ds.PendingBytes != 8*4 {
		t.Fatalf("pending bytes %d", ds.PendingBytes)
	}
}
