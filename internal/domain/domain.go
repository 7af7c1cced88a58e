// Package domain provides the value-domain primitives shared by all
// self-organization modules: inclusive value ranges, overlap geometry and
// byte-size helpers.
//
// The paper (Ivanova et al., EDBT 2008) describes segments and queries as
// inclusive integer ranges [lo, hi] over an attribute domain; all split
// arithmetic in §4 and §5 (e.g. R1 = [SL, QL-1], R2 = [QL, SH]) assumes an
// integer domain. Float columns (SkyServer's ra) are mapped onto this
// integer domain by fixed-point scaling in internal/sky.
package domain

import (
	"fmt"
	"math"
)

// Value is a point in the attribute domain. The paper assumes an integer
// domain for split arithmetic; 64 bits cover every column type we scale
// into it.
type Value = int64

// Range is an inclusive value interval [Lo, Hi]. A Range with Lo > Hi is
// empty. Ranges describe both selection predicates (QL..QH) and segment
// bounds (SL..SH).
type Range struct {
	Lo, Hi Value
}

// NewRange returns the inclusive range [lo, hi]. It panics if lo > hi;
// construct empty ranges with Empty instead so that emptiness is explicit.
func NewRange(lo, hi Value) Range {
	if lo > hi {
		panic(fmt.Sprintf("domain: inverted range [%d, %d]", lo, hi))
	}
	return Range{Lo: lo, Hi: hi}
}

// Empty returns a canonical empty range.
func Empty() Range { return Range{Lo: 1, Hi: 0} }

// IsEmpty reports whether r contains no values.
func (r Range) IsEmpty() bool { return r.Lo > r.Hi }

// Width returns the number of domain values in r (0 for empty ranges).
// It wraps on ranges of more than MaxInt64 values (the full int64 extent
// gives 0), which the split rules read as "not splittable"; Prorate does
// not wrap.
func (r Range) Width() int64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Hi - r.Lo + 1
}

// Prorate returns the share of n that falls into piece when n is spread
// uniformly over r: n × |r ∩ piece| / |r|, within [0, n]. It is the one
// uniform estimate of segment and piece sizes (§3.2.2 "using estimates of
// the segment sizes"). The widths are taken in float64, where no extent
// wraps, the full int64 one of 2^64 values included.
func (r Range) Prorate(n int64, piece Range) int64 {
	ov := r.Intersect(piece)
	switch {
	case ov.IsEmpty():
		return 0
	case ov == r:
		return n
	}
	if f := float64(n) * ov.span() / r.span(); f < float64(n) {
		return int64(f)
	}
	return n
}

// span is the number of values in the non-empty r as a float64: the
// exact Width below 2^53, and 2^64 on the full extent.
func (r Range) span() float64 {
	if d := uint64(r.Hi) - uint64(r.Lo); d < math.MaxUint64 {
		return float64(d + 1)
	}
	return 0x1p64
}

// Contains reports whether v lies inside r.
func (r Range) Contains(v Value) bool { return v >= r.Lo && v <= r.Hi }

// ContainsRange reports whether r fully contains s. Every range contains
// the empty range.
func (r Range) ContainsRange(s Range) bool {
	if s.IsEmpty() {
		return true
	}
	return !r.IsEmpty() && r.Lo <= s.Lo && s.Hi <= r.Hi
}

// Overlaps reports whether r and s share at least one value.
func (r Range) Overlaps(s Range) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.Lo <= s.Hi && s.Lo <= r.Hi
}

// Intersect returns the overlap of r and s (empty if they are disjoint).
func (r Range) Intersect(s Range) Range {
	if !r.Overlaps(s) {
		return Empty()
	}
	return Range{Lo: max64(r.Lo, s.Lo), Hi: min64(r.Hi, s.Hi)}
}

// Equal reports whether r and s denote the same set of values. All empty
// ranges are equal.
func (r Range) Equal(s Range) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return r.IsEmpty() && s.IsEmpty()
	}
	return r.Lo == s.Lo && r.Hi == s.Hi
}

// Adjacent reports whether s starts exactly one past the end of r.
func (r Range) Adjacent(s Range) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.Hi+1 == s.Lo
}

func (r Range) String() string {
	if r.IsEmpty() {
		return "[empty]"
	}
	return fmt.Sprintf("[%d, %d]", r.Lo, r.Hi)
}

// Split describes how a query range q cuts a segment range s into up to
// three pieces: a left complement, the overlap, and a right complement.
// Empty pieces signal that the corresponding side does not exist (the query
// bound lies at or beyond the segment bound).
type Split struct {
	Left    Range // s values strictly below the overlap
	Overlap Range // s ∩ q
	Right   Range // s values strictly above the overlap
}

// Cut computes the three-way split of segment range s by query range q.
// It panics if the two ranges do not overlap: callers must pre-filter with
// Overlaps, mirroring the meta-index lookup in the paper.
func Cut(s, q Range) Split {
	ov := s.Intersect(q)
	if ov.IsEmpty() {
		panic(fmt.Sprintf("domain: Cut of disjoint ranges %v and %v", s, q))
	}
	sp := Split{Left: Empty(), Overlap: ov, Right: Empty()}
	if s.Lo < ov.Lo {
		sp.Left = Range{Lo: s.Lo, Hi: ov.Lo - 1}
	}
	if ov.Hi < s.Hi {
		sp.Right = Range{Lo: ov.Hi + 1, Hi: s.Hi}
	}
	return sp
}

// Pieces returns the non-empty pieces of the split in domain order.
func (sp Split) Pieces() []Range {
	out := make([]Range, 0, 3)
	if !sp.Left.IsEmpty() {
		out = append(out, sp.Left)
	}
	out = append(out, sp.Overlap)
	if !sp.Right.IsEmpty() {
		out = append(out, sp.Right)
	}
	return out
}

// Cuts returns the split's cut points in domain order — the last value of
// every non-empty piece but the last — so that a segment cut at them
// (segment.Segment.Split) yields exactly Pieces.
func (sp Split) Cuts() []Value {
	cuts := make([]Value, 0, 2)
	if !sp.Left.IsEmpty() {
		cuts = append(cuts, sp.Left.Hi)
	}
	if !sp.Right.IsEmpty() {
		cuts = append(cuts, sp.Overlap.Hi)
	}
	return cuts
}

// Kind classifies the overlap geometry used by Algorithm 4 of the paper.
type OverlapKind int

const (
	// CoversAll: the query covers the segment entirely (case 0 geometry).
	CoversAll OverlapKind = iota
	// CoversLower: the query covers the lower part of the segment (case 1).
	CoversLower
	// CoversUpper: the query covers the upper part of the segment (case 2).
	CoversUpper
	// Inside: the query lies strictly inside the segment (case 3).
	Inside
)

func (k OverlapKind) String() string {
	switch k {
	case CoversAll:
		return "covers-all"
	case CoversLower:
		return "covers-lower"
	case CoversUpper:
		return "covers-upper"
	case Inside:
		return "inside"
	default:
		return fmt.Sprintf("OverlapKind(%d)", int(k))
	}
}

// Classify returns the overlap geometry of query q against segment s.
// It panics if the ranges do not overlap.
func Classify(s, q Range) OverlapKind {
	sp := Cut(s, q)
	switch {
	case sp.Left.IsEmpty() && sp.Right.IsEmpty():
		return CoversAll
	case sp.Left.IsEmpty():
		return CoversLower
	case sp.Right.IsEmpty():
		return CoversUpper
	default:
		return Inside
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
