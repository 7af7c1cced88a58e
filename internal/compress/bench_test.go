package compress

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// benchData returns the three canonical shapes at n rows: sorted
// low-cardinality (RLE), shuffled low-cardinality (Dict), narrow-span
// uniform (FOR).
func benchData(n int) map[string][]int64 {
	rng := rand.New(rand.NewSource(1))
	sorted := make([]int64, n)
	for i := range sorted {
		sorted[i] = int64(i / (n / 64))
	}
	lowCard := make([]int64, n)
	for i := range lowCard {
		lowCard[i] = int64(rng.Intn(64)) * 1000
	}
	narrow := make([]int64, n)
	for i := range narrow {
		narrow[i] = 1<<40 + rng.Int63n(4096)
	}
	return map[string][]int64{"sorted": sorted, "lowCard": lowCard, "narrow": narrow}
}

// BenchmarkEncode measures what building each encoding costs per value —
// time and bytes allocated — on 128 K uniform values (a 2^20 span, FOR's
// shape) and 128 K low-cardinality ones (64 distinct, Dict's shape).
// Auto is the codec the strategies encode with: profile, choose, build.
func BenchmarkEncode(b *testing.B) {
	const n = 128 << 10
	rng := rand.New(rand.NewSource(1))
	uniform, lowCard := make([]int64, n), make([]int64, n)
	for i := range uniform {
		uniform[i] = 1<<40 + rng.Int63n(1<<20)
		lowCard[i] = int64(rng.Intn(64)) * 1000
	}
	for _, in := range []struct {
		name string
		vals []int64
	}{{"uniform", uniform}, {"lowCard", lowCard}} {
		for _, mode := range []Mode{ForcePlain, ForceRLE, ForceDict, ForceFOR, Auto} {
			c := NewCodec(mode, 4)
			b.Run(in.name+"/"+mode.String(), func(b *testing.B) {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Encode(in.vals)
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				per := float64(b.N) * n
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/value")
				b.ReportMetric(float64(ms.TotalAlloc-before)/per, "B/value")
			})
		}
	}
}

// BenchmarkSelectRange measures the range-selection fast paths against
// the plain scan on a half-hitting predicate.
func BenchmarkSelectRange(b *testing.B) {
	const n = 1 << 16
	for name, vals := range benchData(n) {
		lo, hi, _ := NewPlain(vals, 4).MinMax()
		mid := lo + (hi-lo)/2
		for _, e := range Encodings {
			v := Encode(vals, e, 4)
			b.Run(name+"/"+e.String(), func(b *testing.B) {
				b.SetBytes(8 * n)
				dst := make([]int64, 0, n)
				for i := 0; i < b.N; i++ {
					dst = v.SelectRange(lo, mid, dst[:0])
				}
			})
		}
	}
}

// BenchmarkCountRange measures the counting fast paths (RLE counts from
// run headers without touching rows).
func BenchmarkCountRange(b *testing.B) {
	const n = 1 << 16
	for name, vals := range benchData(n) {
		lo, hi, _ := NewPlain(vals, 4).MinMax()
		mid := lo + (hi-lo)/2
		for _, e := range Encodings {
			v := Encode(vals, e, 4)
			b.Run(name+"/"+e.String(), func(b *testing.B) {
				b.SetBytes(8 * n)
				for i := 0; i < b.N; i++ {
					v.CountRange(lo, mid)
				}
			})
		}
	}
}

// BenchmarkKernelWidths sweeps the range kernels across bit widths: FOR
// data spanning 2^w values (and Dict data with 2^w distinct values, where
// n rows can hold that many), against Plain on the same rows, under a
// predicate covering the middle half of the frame. ns/value is the
// per-value cost, the unit of the benchmark's compress.*_ns_per_val
// rungs; the Plain row is the bar.
func BenchmarkKernelWidths(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	for _, w := range []uint{1, 7, 13, 15, 20, 32} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = -1<<40 + rng.Int63n(1<<w)
		}
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo, hi = min(lo, v), max(hi, v)
		}
		qlo, qhi := lo+(hi-lo)/4, hi-(hi-lo)/4
		encs := []Encoding{Plain, FOR}
		if 1<<w <= n {
			encs = append(encs, Dict)
		}
		for _, e := range encs {
			v := Encode(append([]int64(nil), vals...), e, 4)
			name := fmt.Sprintf("w%d/%v", w, e)
			b.Run(name+"/count", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					v.CountRange(qlo, qhi)
				}
				perValue(b, n)
			})
			b.Run(name+"/select", func(b *testing.B) {
				dst := make([]int64, 0, n)
				for i := 0; i < b.N; i++ {
					dst = v.SelectRange(qlo, qhi, dst[:0])
				}
				perValue(b, n)
			})
			b.Run(name+"/sum", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					v.SumRange(qlo, qhi)
				}
				perValue(b, n)
			})
		}
	}
}

// perValue reports b's time per value scanned, at n values an op.
func perValue(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
}
