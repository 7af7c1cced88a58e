package selforg

// Observability-overhead benchmarks — the acceptance measurement for the
// obs subsystem's "cheap by default" contract. The same converged-column
// scan is timed with the column detached from any observer, attached
// with counters only (the default), and attached with full per-query
// phase tracing. Their counted costs are TestCostTable's scan/observer_off,
// scan/observer_on and scan/traced rows; these time them.

import (
	"math/rand"
	"testing"
)

func benchObsColumn(b *testing.B, o Observability) *Column {
	b.Helper()
	const dom = 1 << 24
	r := rand.New(rand.NewSource(29))
	vals := make([]int64, 500_000)
	for i := range vals {
		vals[i] = r.Int63n(dom)
	}
	col, err := New(Interval{0, dom - 1}, vals, Options{
		Model:         APM,
		ElemSize:      8,
		APMMin:        64 << 10,
		APMMax:        256 << 10,
		Observability: o,
	})
	if err != nil {
		b.Fatal(err)
	}
	conv := rand.New(rand.NewSource(31))
	for i := 0; i < 100; i++ {
		lo := conv.Int63n(dom)
		hi := lo + dom/20
		if hi >= dom {
			hi = dom - 1
		}
		col.Select(lo, hi)
	}
	return col
}

func benchmarkScanObs(b *testing.B, o Observability) {
	col := benchObsColumn(b, o)
	const lo, hi = 1 << 22, 1 << 23
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := col.Select(lo, hi)
		if len(res) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkScanObsOff(b *testing.B) {
	benchmarkScanObs(b, Observability{Disable: true})
}

func BenchmarkScanObsOn(b *testing.B) {
	benchmarkScanObs(b, Observability{Observer: NewObserver()})
}

func BenchmarkScanObsTrace(b *testing.B) {
	benchmarkScanObs(b, Observability{Observer: NewObserver(), Trace: true})
}
