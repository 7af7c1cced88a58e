package bat

import "fmt"

// This file implements the algebra operators the paper's MAL plans invoke
// (Figure 1 and the §3.1 segment-iterator rewrite): selections, the
// k-operators keyed on head values, reverse/mirror/mark and the join.

// RangeSelect returns the associations whose tail lies in [lo, hi]
// (bounds inclusive per flag) — MAL's algebra.select(b, lo, hi) /
// algebra.uselect(b, lo, hi, li, hi).
func RangeSelect(b *BAT, lo, hi Value, loIncl, hiIncl bool) *BAT {
	if lo.K != b.TailKind() || hi.K != b.TailKind() {
		panic(fmt.Sprintf("bat: select bounds %v/%v against tail %v", lo.K, hi.K, b.TailKind()))
	}
	out := Empty(b.HeadKind(), b.TailKind())
	inLo := func(v Value) bool {
		if loIncl {
			return !v.Less(lo)
		}
		return lo.Less(v)
	}
	inHi := func(v Value) bool {
		if hiIncl {
			return !hi.Less(v)
		}
		return v.Less(hi)
	}
	// Fast path for the dominant dbl case (SkyServer's ra predicate).
	if dt, ok := b.Tail.(*DblVector); ok {
		for i, v := range dt.Dbls() {
			dv := Dbl(v)
			if inLo(dv) && inHi(dv) {
				out.AppendRow(b.Head.Get(i), dv)
			}
		}
		return out
	}
	for i := 0; i < b.Len(); i++ {
		h, t := b.Row(i)
		if inLo(t) && inHi(t) {
			out.AppendRow(h, t)
		}
	}
	return out
}

// SelectEq returns the associations whose tail equals v.
func SelectEq(b *BAT, v Value) *BAT {
	out := Empty(b.HeadKind(), b.TailKind())
	for i := 0; i < b.Len(); i++ {
		h, t := b.Row(i)
		if t == v {
			out.AppendRow(h, t)
		}
	}
	return out
}

// headSet builds a hash set of a BAT's head values.
func headSet(b *BAT) map[Value]struct{} {
	m := make(map[Value]struct{}, b.Len())
	for i := 0; i < b.Len(); i++ {
		m[b.Head.Get(i)] = struct{}{}
	}
	return m
}

// KUnion returns a's associations plus those of b whose head does not
// occur in a — MAL's algebra.kunion, used to merge base columns with
// insert deltas.
func KUnion(a, b *BAT) *BAT {
	if a.TailKind() != b.TailKind() || a.HeadKind() != b.HeadKind() {
		panic("bat: kunion of differently typed bats")
	}
	out := Empty(a.HeadKind(), a.TailKind())
	for i := 0; i < a.Len(); i++ {
		h, t := a.Row(i)
		out.AppendRow(h, t)
	}
	seen := headSet(a)
	for i := 0; i < b.Len(); i++ {
		h, t := b.Row(i)
		if _, ok := seen[h]; !ok {
			out.AppendRow(h, t)
		}
	}
	return out
}

// KDifference returns a's associations whose head does not occur in b —
// MAL's algebra.kdifference, used to mask updated or deleted rows.
func KDifference(a, b *BAT) *BAT {
	out := Empty(a.HeadKind(), a.TailKind())
	drop := headSet(b)
	for i := 0; i < a.Len(); i++ {
		h, t := a.Row(i)
		if _, ok := drop[h]; !ok {
			out.AppendRow(h, t)
		}
	}
	return out
}

// KIntersect returns a's associations whose head occurs in b.
func KIntersect(a, b *BAT) *BAT {
	out := Empty(a.HeadKind(), a.TailKind())
	keep := headSet(b)
	for i := 0; i < a.Len(); i++ {
		h, t := a.Row(i)
		if _, ok := keep[h]; ok {
			out.AppendRow(h, t)
		}
	}
	return out
}

// Reverse swaps head and tail — MAL's bat.reverse.
func Reverse(b *BAT) *BAT { return New(b.Tail, b.Head) }

// Mirror pairs each head value with itself — MAL's bat.mirror.
func Mirror(b *BAT) *BAT { return New(b.Head, b.Head) }

// MarkT renumbers the tail densely starting at base, keeping the head —
// MAL's algebra.markT(b, base), used to compact oid ranges before result
// construction.
func MarkT(b *BAT, base uint64) *BAT {
	return New(b.Head, NewDenseOids(base, b.Len()))
}

// Join matches a's tail against b's head and returns [a.head, b.tail] —
// MAL's algebra.join. Duplicate matches multiply, as in the relational
// semantics.
func Join(a, b *BAT) *BAT {
	if a.TailKind() != b.HeadKind() {
		panic(fmt.Sprintf("bat: join on %v tail vs %v head", a.TailKind(), b.HeadKind()))
	}
	// Hash the smaller operand's join column.
	idx := make(map[Value][]int, b.Len())
	for i := 0; i < b.Len(); i++ {
		h := b.Head.Get(i)
		idx[h] = append(idx[h], i)
	}
	out := Empty(a.HeadKind(), b.TailKind())
	for i := 0; i < a.Len(); i++ {
		h, t := a.Row(i)
		for _, j := range idx[t] {
			out.AppendRow(h, b.Tail.Get(j))
		}
	}
	return out
}

// Project returns [b.head, v] — a constant projection.
func Project(b *BAT, v Value) *BAT {
	t := NewVector(v.K)
	for i := 0; i < b.Len(); i++ {
		t = t.Append(v)
	}
	return New(b.Head, t)
}
