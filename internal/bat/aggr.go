package bat

import (
	"fmt"
	"sort"
)

// Count returns the number of associations — MAL's aggr.count.
func Count(b *BAT) int64 { return int64(b.Len()) }

// Sum adds up the tail column (lng or dbl) — MAL's aggr.sum. §3.1 notes
// that a sum over a segmented bat is "relatively easy to design"; the
// segment-aware version simply sums per segment and adds the parts, which
// the tests verify against this centralized version.
func Sum(b *BAT) Value {
	switch t := b.Tail.(type) {
	case *LngVector:
		var s int64
		for _, v := range t.Lngs() {
			s += v
		}
		return Lng(s)
	case *DblVector:
		var s float64
		for _, v := range t.Dbls() {
			s += v
		}
		return Dbl(s)
	default:
		panic(fmt.Sprintf("bat: sum over %v tail", b.TailKind()))
	}
}

// Min returns the smallest tail value; it panics on an empty BAT.
func Min(b *BAT) Value {
	if b.Len() == 0 {
		panic("bat: min of empty bat")
	}
	m := b.Tail.Get(0)
	for i := 1; i < b.Len(); i++ {
		if v := b.Tail.Get(i); v.Less(m) {
			m = v
		}
	}
	return m
}

// Max returns the largest tail value; it panics on an empty BAT.
func Max(b *BAT) Value {
	if b.Len() == 0 {
		panic("bat: max of empty bat")
	}
	m := b.Tail.Get(0)
	for i := 1; i < b.Len(); i++ {
		if v := b.Tail.Get(i); m.Less(v) {
			m = v
		}
	}
	return m
}

// SortTail returns a new BAT ordered ascending by tail, preserving the
// head/tail pairing — MAL's algebra.sortTail. §3.1 points out that sorting
// a segmented column "effectively requires a major re-partitioning"; the
// segment-aware variant concatenates per-segment sorts of value-disjoint
// segments, which tests compare against this version.
func SortTail(b *BAT) *BAT {
	idx := make([]int, b.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		return b.Tail.Get(idx[x]).Less(b.Tail.Get(idx[y]))
	})
	out := Empty(b.HeadKind(), b.TailKind())
	for _, i := range idx {
		h, t := b.Row(i)
		out.AppendRow(h, t)
	}
	return out
}

// Histogram counts tail occurrences — MAL's aggr.histogram, returned as a
// [value, lng] BAT in first-seen order.
func Histogram(b *BAT) *BAT {
	counts := make(map[Value]int64, b.Len())
	order := make([]Value, 0, b.Len())
	for i := 0; i < b.Len(); i++ {
		t := b.Tail.Get(i)
		if _, ok := counts[t]; !ok {
			order = append(order, t)
		}
		counts[t]++
	}
	out := Empty(b.TailKind(), KLng)
	for _, v := range order {
		out.AppendRow(v, Lng(counts[v]))
	}
	return out
}
