package selforg_test

// Durability benchmarks of the go-bench smoke set (make bench-smoke):
//
//   - WALAppend: the raw frame-append cost of the log layer.
//   - GroupCommitThroughput: multi-writer insert throughput, durable
//     (group commit: one log append, one MVCC version, one snapshot
//     publication per group) vs the in-memory per-write path (one
//     version and one publication per insert) — the write-amplification
//     comparison BENCH.md records.
//   - OverlayScanSortedRuns: range scans over a large pending delta
//     store, exercising the binary-searched sorted-run overlay.

import (
	"path/filepath"
	"sync/atomic"
	"testing"

	"selforg"
	"selforg/internal/delta"
	"selforg/internal/wal"
)

func BenchmarkWALAppend(b *testing.B) {
	l, _, err := wal.Open(filepath.Join(b.TempDir(), "bench.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	ops := make([]delta.Op, 16)
	for i := range ops {
		ops[i] = delta.Op{Kind: delta.OpInsert, V: int64(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.AppendBatch(uint64(i+1), ops); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupCommitThroughput(b *testing.B) {
	const lo, hi = 0, 1 << 20
	// group: durable with group commit. singleton: durable with the
	// group size capped at 1 — the pre-group-commit write amplification
	// (one append, one version, one publication per write). memory: the
	// non-durable per-write path, for scale.
	for _, mode := range []string{"group", "singleton", "memory"} {
		b.Run(mode, func(b *testing.B) {
			opts := selforg.Options{Model: selforg.APM, DeltaMaxBytes: -1}
			switch mode {
			case "group":
				opts.Durability = selforg.Durability{Dir: b.TempDir()}
			case "singleton":
				opts.Durability = selforg.Durability{Dir: b.TempDir(), MaxBatch: 1}
			}
			col, err := selforg.New(selforg.Interval{Lo: lo, Hi: hi}, seedVals(1, 10_000, lo, hi), opts)
			if err != nil {
				b.Fatal(err)
			}
			defer col.Close()
			var ctr atomic.Int64
			b.SetParallelism(4) // multi-writer even on GOMAXPROCS=1
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					v := ctr.Add(1) & (hi - 1)
					if _, err := col.Insert(v); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

func BenchmarkOverlayScanSortedRuns(b *testing.B) {
	const lo, hi = 0, 99_999
	opts := selforg.Options{Model: selforg.None, DeltaMaxBytes: -1}
	col, err := selforg.New(selforg.Interval{Lo: lo, Hi: hi}, seedVals(2, 20_000, lo, hi), opts)
	if err != nil {
		b.Fatal(err)
	}
	// 4096 pending writes → dozens of sealed sorted runs to overlay.
	for _, v := range seedVals(3, 4_096, lo, hi) {
		if _, err := col.Insert(v); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := int64(i%50) * 1_000
		col.Select(a, a+2_000)
	}
}
