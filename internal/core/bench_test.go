package core

import (
	"math/rand"
	"sync"
	"testing"

	"selforg/internal/domain"
	"selforg/internal/model"
)

// benchColumn builds a 100K-value column (the §6.1 size, 1 byte/value).
func benchColumn() (domain.Range, []domain.Value) {
	dom := domain.NewRange(0, 999_999)
	rng := rand.New(rand.NewSource(1))
	vals := make([]domain.Value, 100_000)
	for i := range vals {
		vals[i] = rng.Int63n(1_000_000)
	}
	return dom, vals
}

func benchQueries(n int) []domain.Range {
	rng := rand.New(rand.NewSource(2))
	qs := make([]domain.Range, n)
	for i := range qs {
		lo := rng.Int63n(900_000)
		qs[i] = domain.Range{Lo: lo, Hi: lo + 99_999}
	}
	return qs
}

// BenchmarkSegmenterColdStart measures the expensive first queries of
// adaptive segmentation (eager materialization, §3.3).
func BenchmarkSegmenterColdStart(b *testing.B) {
	dom, vals := benchColumn()
	qs := benchQueries(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cp := append([]domain.Value(nil), vals...)
		s := NewSegmenter(dom, cp, 4, model.NewAPM(3<<10, 12<<10), nil)
		b.StartTimer()
		for _, q := range qs {
			s.Select(q)
		}
	}
}

// BenchmarkSegmenterConverged measures steady-state selections once the
// layout has adapted.
func BenchmarkSegmenterConverged(b *testing.B) {
	dom, vals := benchColumn()
	s := NewSegmenter(dom, vals, 4, model.NewAPM(3<<10, 12<<10), nil)
	qs := benchQueries(256)
	for _, q := range qs {
		s.Select(q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := s.Select(qs[i%len(qs)])
		if st.ResultCount == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkReplicatorConverged measures steady-state replication lookups
// (cover computation + scan).
func BenchmarkReplicatorConverged(b *testing.B) {
	dom, vals := benchColumn()
	r := NewReplicator(dom, vals, 4, model.NewAPM(3<<10, 12<<10), nil)
	qs := benchQueries(256)
	for _, q := range qs {
		r.Select(q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := r.Select(qs[i%len(qs)])
		if st.ResultCount == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkGetCover isolates Algorithm 3 on a refined replica tree.
func BenchmarkGetCover(b *testing.B) {
	dom, vals := benchColumn()
	r := NewReplicator(dom, vals, 4, model.NewAPM(3<<10, 12<<10), nil)
	for _, q := range benchQueries(512) {
		r.Select(q)
	}
	qs := benchQueries(64)
	root, _ := r.eng.Pin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cover := getCover(root, qs[i%len(qs)])
		if len(cover) == 0 {
			b.Fatal("empty cover")
		}
	}
}

// hotReplicator is serve_hot's engine shape at test size: 500K uniform
// values over [0, 2^31-1], replicated under APM's default 3 KB–12 KB
// bounds with compression off, warmed with ~400-row ranges until a pass
// of 1 024 of them splits nothing. The converged tree has a few hundred
// leaves under the sentinel; queries are the same ranges again, so each
// overlaps one or two leaves, partially. Built once and shared: a
// converged tree's queries no longer change it.
var hotReplicator = sync.OnceValues(func() (*Replicator, []domain.Range) {
	dom := domain.NewRange(0, 1<<31-1)
	rng := rand.New(rand.NewSource(31))
	vals := make([]domain.Value, 500_000)
	for i := range vals {
		vals[i] = rng.Int63n(dom.Width())
	}
	r := NewReplicator(dom, vals, 4, model.NewAPM(3<<10, 12<<10), nil)
	width := dom.Width() / 1250 // ~400 of 500K rows
	qs := make([]domain.Range, 1024)
	for splits := -1; splits != 0; {
		splits = 0
		for i := range qs {
			lo := rng.Int63n(dom.Width() - width)
			qs[i] = domain.Range{Lo: lo, Hi: lo + width - 1}
			_, st := r.Count(qs[i])
			splits += st.Splits
		}
	}
	return r, qs
})

// BenchmarkReplicatorConvergedCount is one converged COUNT of
// serve_hot's shape: cover walk, partial-leaf count, adaptation check.
func BenchmarkReplicatorConvergedCount(b *testing.B) {
	r, qs := hotReplicator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st := r.Count(qs[i%len(qs)]); st.Splits != 0 {
			b.Fatal("converged tree split")
		}
	}
}

// BenchmarkReplicatorConvergedSelect is Count's query answered as a rope
// of rows, as the facade's SelectRows asks for it.
func BenchmarkReplicatorConvergedSelect(b *testing.B) {
	r, qs := hotReplicator()
	b.ReportAllocs()
	b.ResetTimer()
	var rows int64
	for i := 0; i < b.N; i++ {
		_, st := r.SelectRope(qs[i%len(qs)])
		rows += st.ResultCount
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}
