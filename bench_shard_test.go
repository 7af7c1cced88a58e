package selforg

// Sharded-column benchmarks — the acceptance measurement for the
// domain-sharding subsystem (internal/shard). Writer throughput is the
// headline: point writes route to per-shard delta stores behind
// independent locks, so concurrent writers on disjoint ranges stop
// contending, and merge-backs drain smaller per-shard stores. The mixed
// benchmark additionally shows the overlay saving: a range query overlays
// only the touched shards' pending writes instead of the whole column's.
// Results are recorded in BENCH.md (with the usual single-core container
// caveat for the contention-driven rows).

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"selforg/internal/sim"
)

// benchShardedColumn builds a 100K-value column with k shards and a
// merge threshold small enough that the write benchmarks exercise the
// full delta → merge-back loop.
func benchShardedColumn(b *testing.B, k int) *Column {
	b.Helper()
	rnd := rand.New(rand.NewSource(1))
	vals := make([]int64, 100_000)
	for i := range vals {
		vals[i] = rnd.Int63n(1_000_000)
	}
	col, err := New(Interval{0, 999_999}, vals, Options{
		Shards:        k,
		DeltaMaxBytes: 4096, // merge every ~1K pending entries (per shard)
	})
	if err != nil {
		b.Fatal(err)
	}
	return col
}

// BenchmarkShardedWriters measures concurrent point-write throughput
// (inserts with merge churn) across shard counts: 4 writer goroutines
// per iteration, each inserting into its own quarter of the domain —
// the disjoint-range writer workload sharding targets.
func BenchmarkShardedWriters(b *testing.B) {
	const writers = 4
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			col := benchShardedColumn(b, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						rnd := rand.New(rand.NewSource(int64(b.N*writers + w)))
						lo := int64(w) * 250_000
						for j := 0; j < 250; j++ {
							if _, err := col.Insert(lo + rnd.Int63n(250_000)); err != nil {
								panic(err)
							}
						}
					}(w)
				}
				wg.Wait()
			}
			b.ReportMetric(float64(b.N*writers*250), "writes")
		})
	}
}

// BenchmarkShardedMixedWorkload runs the sim mixed driver (4 clients,
// 50% writes, auto merge-back) across shard counts — the writer-scaling
// smoke benchmark (make bench-smoke). The small delta
// budget exercises merge churn; the large one exercises overlay reads,
// where sharding pays even on one core (a query overlays only the
// touched shards' pending writes, not the whole column's).
func BenchmarkShardedMixedWorkload(b *testing.B) {
	for _, budget := range []int64{1024, 32768} {
		for _, k := range []int{1, 4} {
			b.Run(fmt.Sprintf("budget=%d/shards=%d", budget, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cfg := sim.MixedConfig{Config: sim.DefaultConfig(), WriteRatio: 0.5}
					cfg.DeltaMaxBytes = budget
					cfg.NumQueries = 2_000
					cfg.Clients = 4
					cfg.Shards = k
					r := sim.RunMixed(cfg)
					if r.Queries == 0 || r.Writes == 0 {
						b.Fatalf("degenerate mixed run: %+v", r)
					}
					b.ReportMetric(r.OpsPerSec(), "ops/s")
					b.ReportMetric(float64(r.Stats.DeltaReadBytes)/float64(r.Queries), "overlayB/q")
				}
			})
		}
	}
}

// BenchmarkShardedScan measures a converged large range scan across
// shard counts — the router must not cost read throughput (the scan
// volume is identical; only routing and merge order change).
func BenchmarkShardedScan(b *testing.B) {
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			col := benchShardedColumn(b, k)
			warm := rand.New(rand.NewSource(3))
			for q := 0; q < 200; q++ {
				lo := warm.Int63n(900_000)
				col.Select(lo, lo+99_999)
			}
			rnd := rand.New(rand.NewSource(4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := rnd.Int63n(750_000)
				res, _ := col.Select(lo, lo+249_999)
				if len(res) == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}
