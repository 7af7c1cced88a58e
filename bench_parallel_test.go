package selforg

import (
	"math/rand"
	"testing"
)

// Parallel scan benchmarks — the acceptance measurement for the
// concurrency substrate. A large uniform column is converged first (so
// the steady state is measured, not the reorganization transient), then
// one large selection spanning many segments is timed with the scan
// fan-out off and on. On a multi-core host the fan-out path scales with
// the worker count; on a single-core host it measures the bounded
// overhead of the task machinery. Results are recorded in BENCH.md.

const (
	benchVals = 4_000_000
	benchDom  = 1 << 30
)

// convergedColumn builds a large uniform column and drives it to a
// converged APM layout (hundreds of segments) before measurement.
func convergedColumn(b *testing.B, par int) *Column {
	b.Helper()
	r := rand.New(rand.NewSource(17))
	vals := make([]int64, benchVals)
	for i := range vals {
		vals[i] = r.Int63n(benchDom)
	}
	col, err := New(Interval{0, benchDom - 1}, vals, Options{
		Model:       APM,
		ElemSize:    8,
		APMMin:      256 << 10,
		APMMax:      1 << 20,
		Parallelism: par,
	})
	if err != nil {
		b.Fatal(err)
	}
	conv := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		lo := conv.Int63n(benchDom)
		hi := lo + benchDom/20
		if hi >= benchDom {
			hi = benchDom - 1
		}
		col.Select(lo, hi)
	}
	return col
}

func benchmarkLargeScan(b *testing.B, par int) {
	col := convergedColumn(b, par)
	b.Logf("segments: %d", col.SegmentCount())
	const lo, hi = benchDom / 4, benchDom / 2 // 25% of the domain
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := col.Select(lo, hi)
		if len(res) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkLargeScanSerial(b *testing.B)    { benchmarkLargeScan(b, 1) }
func BenchmarkLargeScanParallel2(b *testing.B) { benchmarkLargeScan(b, 2) }
func BenchmarkLargeScanParallel4(b *testing.B) { benchmarkLargeScan(b, 4) }
func BenchmarkLargeScanParallel8(b *testing.B) { benchmarkLargeScan(b, 8) }

// BenchmarkConcurrentScanners measures aggregate throughput of many
// client goroutines on one converged Segmentation column (each iteration
// is one mid-size selection). A query holds the writer lock only to plan
// and scans outside it unless the plan splits, so ns/op should fall with
// -cpu; `make bench-multicore` records the ratio (BENCH.md).
func BenchmarkConcurrentScanners(b *testing.B) {
	col := convergedColumn(b, 1)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewSource(31))
		for pb.Next() {
			lo := r.Int63n(benchDom)
			hi := lo + benchDom/50
			if hi >= benchDom {
				hi = benchDom - 1
			}
			col.Select(lo, hi)
		}
	})
}

// BenchmarkConcurrentScannersCount is the same rung in the shape of the
// end-to-end benchmark's scan_wide workload: 4M duplicate-heavy values
// over [0, 2^20) in encoded segments, COUNT over a fifth of the domain at
// uniform positions — the covered segments answer from the meta-index,
// the two edge segments are counted on their encoded form.
func BenchmarkConcurrentScannersCount(b *testing.B) {
	const dom, width = 1 << 20, (1 << 20) / 5
	r := rand.New(rand.NewSource(17))
	vals := make([]int64, benchVals)
	for i := range vals {
		vals[i] = r.Int63n(dom)
	}
	col, err := New(Interval{0, dom - 1}, vals, Options{
		Model:       APM,
		ElemSize:    8,
		APMMin:      256 << 10,
		APMMax:      1 << 20,
		Compression: CompressionAuto,
	})
	if err != nil {
		b.Fatal(err)
	}
	conv := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		lo := conv.Int63n(dom - width)
		col.Count(lo, lo+width-1)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewSource(31))
		for pb.Next() {
			lo := r.Int63n(dom - width)
			col.Count(lo, lo+width-1)
		}
	})
}

// convergedReplicatedColumn builds a replication column and converges it
// on a fixed query pool: after a few passes every pool query's cover is
// materialized and leaf-aligned, so a pool query's scan detects no
// adaptation work and takes zero locks — the state the PR-5 lock-free
// read path is designed for. Returns the column and the pool.
func convergedReplicatedColumn(b *testing.B) (*Column, [][2]int64) {
	b.Helper()
	const (
		nVals = 1_000_000
		dom   = 1 << 26
		pool  = 64
	)
	r := rand.New(rand.NewSource(19))
	vals := make([]int64, nVals)
	for i := range vals {
		vals[i] = r.Int63n(dom)
	}
	col, err := New(Interval{0, dom - 1}, vals, Options{
		Strategy: Replication,
		Model:    APM,
		ElemSize: 8,
		APMMin:   64 << 10,
		APMMax:   512 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	qr := rand.New(rand.NewSource(23))
	queries := make([][2]int64, pool)
	for i := range queries {
		lo := qr.Int63n(dom - dom/16)
		queries[i] = [2]int64{lo, lo + dom/16 - 1}
	}
	for pass := 0; pass < 4; pass++ {
		for _, q := range queries {
			col.Select(q[0], q[1])
		}
	}
	return col, queries
}

// BenchmarkReplicatedConcurrentScanners is the PR-5 acceptance
// measurement: aggregate scan throughput of concurrent clients on one
// converged *replication* column. Before the persistent replica tree
// every scan serialized behind the writer mutex, so throughput flatlined
// no matter how many goroutines queried; now pool-aligned scans take
// zero locks and throughput scales with the worker count. Run with
// `-cpu 1,2,4,8` to see the scaling curve (numbers in BENCH.md).
func BenchmarkReplicatedConcurrentScanners(b *testing.B) {
	col, queries := convergedReplicatedColumn(b)
	b.Logf("replicas: %d (depth %d)", col.SegmentCount(), col.TreeDepth())
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewSource(41))
		for pb.Next() {
			q := queries[r.Intn(len(queries))]
			res, _ := col.Select(q[0], q[1])
			if len(res) == 0 {
				b.Fatal("empty result")
			}
		}
	})
}

// BenchmarkReplicatedScanSerial is the single-goroutine baseline for the
// concurrent benchmark above (same converged column, same query pool).
func BenchmarkReplicatedScanSerial(b *testing.B) {
	col, queries := convergedReplicatedColumn(b)
	b.ResetTimer()
	r := rand.New(rand.NewSource(41))
	for i := 0; i < b.N; i++ {
		q := queries[r.Intn(len(queries))]
		res, _ := col.Select(q[0], q[1])
		if len(res) == 0 {
			b.Fatal("empty result")
		}
	}
}
