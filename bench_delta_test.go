package selforg_test

// Mixed read-write benchmarks for the MVCC delta subsystem: the write
// path itself (delta-store appends), overlay reads against a loaded
// store, and the full mixed workload with merge churn. Run with:
//
//	go test -run xxx -bench 'Delta|Mixed' -benchtime 10x .

import (
	"math/rand"
	"testing"

	"selforg"
	"selforg/internal/sim"
)

func benchColumn(b testing.TB, opts selforg.Options) *selforg.Column {
	b.Helper()
	rnd := rand.New(rand.NewSource(1))
	vals := make([]int64, 100_000)
	for i := range vals {
		vals[i] = rnd.Int63n(1_000_000)
	}
	col, err := selforg.New(selforg.Interval{Lo: 0, Hi: 999_999}, vals, opts)
	if err != nil {
		b.Fatal(err)
	}
	return col
}

// BenchmarkDeltaInsert measures the point-write path with merging
// disabled: pure delta-store appends.
func BenchmarkDeltaInsert(b *testing.B) {
	col := benchColumn(b, selforg.Options{DeltaMaxBytes: -1})
	rnd := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := col.Insert(rnd.Int63n(1_000_000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaOverlayScan measures a range select against a column
// carrying a loaded (unmerged) delta store.
func BenchmarkDeltaOverlayScan(b *testing.B) {
	col := benchColumn(b, selforg.Options{DeltaMaxBytes: -1})
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 2_000; i++ {
		col.Insert(rnd.Int63n(1_000_000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rnd.Int63n(900_000)
		col.Select(lo, lo+99_999)
	}
}

// BenchmarkDeltaMergeBack measures the checkpoint itself: drain 1000
// pending writes through the single-writer rewrite pipeline.
func BenchmarkDeltaMergeBack(b *testing.B) {
	rnd := rand.New(rand.NewSource(4))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		col := benchColumn(b, selforg.Options{DeltaMaxBytes: -1})
		for j := 0; j < 1_000; j++ {
			col.Insert(rnd.Int63n(1_000_000))
		}
		b.StartTimer()
		if _, err := col.MergeDeltas(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMixedWorkload runs the sim mixed driver (4 clients, 20%
// writes, auto merge-back) — the CI smoke benchmark for the read-write
// workload space.
func BenchmarkMixedWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.MixedConfig{Config: sim.DefaultConfig(), WriteRatio: 0.2}
		cfg.DeltaMaxBytes = 1024
		cfg.NumQueries = 2_000
		cfg.Clients = 4
		r := sim.RunMixed(cfg)
		if r.Queries == 0 || r.Writes == 0 {
			b.Fatalf("degenerate mixed run: %+v", r)
		}
	}
}
