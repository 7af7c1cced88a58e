package main

import (
	"math"
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	sp := func(id, parent, start, end int64) span {
		return span{ID: id, Parent: parent, Start: start, End: end}
	}
	tests := []struct {
		name  string
		spans []span
		want  map[int64]int64
	}{
		{"no children", []span{sp(1, 0, 0, 100)}, map[int64]int64{1: 100}},
		{"one child", []span{sp(1, 0, 0, 100), sp(2, 1, 10, 40)}, map[int64]int64{1: 70, 2: 30}},
		{"two disjoint children", []span{sp(1, 0, 0, 100), sp(2, 1, 10, 40), sp(3, 1, 50, 60)},
			map[int64]int64{1: 60, 2: 30, 3: 10}},
		{"overlapping children count once", []span{sp(1, 0, 0, 100), sp(2, 1, 10, 50), sp(3, 1, 30, 70)},
			map[int64]int64{1: 40, 2: 40, 3: 40}},
		{"child contained in a sibling", []span{sp(1, 0, 0, 100), sp(2, 1, 10, 90), sp(3, 1, 20, 30)},
			map[int64]int64{1: 20, 2: 80, 3: 10}},
		{"child clipped to its parent", []span{sp(1, 0, 50, 100), sp(2, 1, 0, 60), sp(3, 1, 90, 200)},
			map[int64]int64{1: 30, 2: 60, 3: 110}},
		{"missing parent is a root", []span{sp(1, 0, 0, 100), sp(2, 99, 10, 40)},
			map[int64]int64{1: 100, 2: 30}},
		{"grandchild only reduces its parent", []span{sp(1, 0, 0, 100), sp(2, 1, 10, 60), sp(3, 2, 20, 30)},
			map[int64]int64{1: 50, 2: 40, 3: 10}},
		{"children given out of order", []span{sp(3, 1, 50, 60), sp(1, 0, 0, 100), sp(2, 1, 10, 40)},
			map[int64]int64{1: 60, 2: 30, 3: 10}},
	}
	for _, tc := range tests {
		got := selfTimes(tc.spans)
		for id, want := range tc.want {
			if got[id] != want {
				t.Errorf("%s: span %d self time %d, want %d", tc.name, id, got[id], want)
			}
		}
	}
}

func TestRecorderNilAndNesting(t *testing.T) {
	var off *recorder
	if id := off.begin("x", 0, 1); id != 0 {
		t.Errorf("nil recorder returned id %d", id)
	}
	off.end(0, nil) // must not panic

	r := newRecorder(4)
	outer := r.begin("outer", 0, 7)
	inner := r.begin("inner", outer, 7)
	r.end(inner, map[string]int64{"rows": 3})
	r.end(outer, nil)
	spans := r.since(0)
	if len(spans) != 2 || spans[1].Parent != outer || spans[1].Request != 7 || spans[1].Counts["rows"] != 3 {
		t.Fatalf("recorded %+v", spans)
	}
	if spans[0].Start > spans[1].Start || spans[1].End > spans[0].End {
		t.Errorf("inner %+v not inside outer %+v", spans[1], spans[0])
	}
	self := selfTimes(spans)
	if self[outer] != spans[0].dur()-spans[1].dur() {
		t.Errorf("outer self time %d, want %d", self[outer], spans[0].dur()-spans[1].dur())
	}
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	tests := []struct {
		name    string
		n       int
		q       float64
		want    float64
		wantErr bool
	}{
		{"p50 of 20 has exactly 10 beyond", 20, 0.50, 10, false},
		{"p50 of 19 has 9 beyond", 19, 0.50, 0, true},
		{"p99 of 999 has 9 beyond", 999, 0.99, 0, true},
		{"p99 of 1000 has exactly 10 beyond", 1000, 0.99, 990, false},
		{"p99 of 2000", 2000, 0.99, 1980, false},
		{"p99 of 100 is not quietly p90", 100, 0.99, 0, true},
		{"no samples", 0, 0.50, 0, true},
	}
	for _, tc := range tests {
		got, err := percentile(seq(tc.n), tc.q)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: error %v, want error %v", tc.name, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("%s: got %g, want %g", tc.name, got, tc.want)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4),
// whose values these are.
func TestQuartiles(t *testing.T) {
	tests := []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 1}, 0, 6}, // two values extrapolate, as Python does
		{[]float64{2, 4, 4, 4, 5, 5, 7, 9}, 4, 6.5},
	}
	for _, tc := range tests {
		q1, q3 := quartiles(tc.vals)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.vals, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median %g", got)
	}
}

func TestFirstQuartile(t *testing.T) {
	if got := firstQuartile([]float64{8, 1, 7, 2, 6, 3, 5, 4}); got != 2 {
		t.Errorf("first quartile of eight %g, want the second smallest", got)
	}
	if got := firstQuartile([]float64{9}); got != 9 {
		t.Errorf("first quartile of one %g", got)
	}
	if got := firstQuartile(nil); got != 0 {
		t.Errorf("empty first quartile %g", got)
	}
}

// TestSlices: a window is cut into equal slices of at least a second, a
// statement belongs to the slice it was sent in, and a window shorter than
// a second is one slice.
func TestSlices(t *testing.T) {
	p := &part{window: 3.5} // three slices of 7/6 s
	p.tally.lat[clsCount] = []float64{5, 4, 3, 2}
	p.tally.when[clsCount] = []float64{0.1, 1.0, 1.2, 3.5}
	p.tally.lat[clsSelect] = []float64{1, 9}
	p.tally.when[clsSelect] = []float64{1.3, 0.2}
	got := p.slices([]class{clsCount, clsSelect})
	want := [][]float64{{4, 5, 9}, {1, 3}, {2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("slices %v, want %v", got, want)
	}
	if got := p.slices([]class{clsSelect}); !reflect.DeepEqual(got, [][]float64{{9}, {1}, nil}) {
		t.Errorf("slices of one class %v", got)
	}
	p.window = 0.4
	if got := p.slices([]class{clsCount}); len(got) != 1 || len(got[0]) != 4 {
		t.Errorf("a short window is one slice, got %v", got)
	}
}
