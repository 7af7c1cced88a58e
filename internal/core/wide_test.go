package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"selforg/internal/domain"
	"selforg/internal/model"
)

// TestWideExtentsUnderAPM drives a Segmenter and a Replicator with APM
// over extents as wide as int64 allows, where Width wraps, with queries
// at both ends: every answer matches a filter of the values, and the
// layout stays valid. Columns wider than MaxInt64 values never adapt
// (their Width reads as not splittable); narrower ones split.
func TestWideExtentsUnderAPM(t *testing.T) {
	extents := []domain.Range{
		{Lo: math.MinInt64, Hi: math.MaxInt64},
		{Lo: math.MinInt64 + 1, Hi: math.MaxInt64},
		{Lo: -1 << 62, Hi: 1 << 62},
		{Lo: 0, Hi: math.MaxInt64 - 1},
	}
	for _, ext := range extents {
		rng := rand.New(rand.NewSource(5))
		var vals []domain.Value
		for len(vals) < 4_000 {
			vals = append(vals, ext.Lo+rng.Int63n(1_000), ext.Hi-rng.Int63n(1_000))
			if v := int64(rng.Uint64()); ext.Contains(v) {
				vals = append(vals, v)
			}
		}
		qs := []domain.Range{
			{Lo: ext.Hi - 10, Hi: ext.Hi},
			{Lo: ext.Lo, Hi: ext.Lo + 10},
			{Lo: ext.Hi - 500, Hi: ext.Hi},
			{Lo: ext.Lo, Hi: ext.Lo + 500},
			{Lo: ext.Hi, Hi: ext.Hi},
			{Lo: ext.Lo, Hi: ext.Lo},
			{Lo: -1 << 40, Hi: 1 << 40},
			ext,
		}
		seg := NewSegmenter(ext, slices.Clone(vals), 8, model.NewAPM(256, 1024), nil)
		rep := NewReplicator(ext, slices.Clone(vals), 8, model.NewAPM(256, 1024), nil)
		for round := 0; round < 20; round++ {
			for _, q := range qs {
				var want []domain.Value
				for _, v := range vals {
					if q.Contains(v) {
						want = append(want, v)
					}
				}
				slices.Sort(want)
				for name, sel := range map[string]func(domain.Range) ([]domain.Value, QueryStats){
					"segmenter": seg.Select, "replicator": rep.Select,
				} {
					got, _ := sel(q)
					slices.Sort(got)
					if !slices.Equal(got, want) {
						t.Fatalf("%v %s: select %v returned %d rows, want %d", ext, name, q, len(got), len(want))
					}
				}
			}
		}
		if err := seg.Validate(); err != nil {
			t.Fatalf("%v segmenter: %v", ext, err)
		}
		if err := rep.Validate(); err != nil {
			t.Fatalf("%v replicator: %v", ext, err)
		}
		segs := seg.eng.Base().Len()
		if ext.Width() < 1 && segs != 1 {
			t.Errorf("%v: segmenter split a column wider than MaxInt64 values into %d segments", ext, segs)
		}
		if ext.Width() > 1 && segs < 2 {
			t.Errorf("%v: segmenter never split", ext)
		}
	}
}
