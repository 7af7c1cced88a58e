package model

import (
	"fmt"

	"selforg/internal/domain"
)

// APM is the deterministic Adaptive Pagination Model of §3.2.2, driven by a
// pair of byte bounds:
//
//  1. if SizeS < Mmin the segment is left intact;
//  2. if all pieces of the query-bound split are estimated >= Mmin, the
//     segment is split at the query bounds;
//  3. if the split would create a piece < Mmin, the segment is split only
//     when SizeS > Mmax, choosing the split point among the query bounds
//     or an approximation of the segment mean.
//
// Segment sizes touched by queries therefore converge to
// Mmin <= SizeS <= Mmax; tuning the bounds makes the policy more or less
// aggressive.
type APM struct {
	Mmin, Mmax int64 // bytes, Mmin < Mmax
}

// NewAPM creates an APM model. It panics unless 0 < Mmin < Mmax, the
// precondition stated in §3.2.2.
func NewAPM(mmin, mmax int64) *APM {
	if mmin <= 0 || mmin >= mmax {
		panic(fmt.Sprintf("model: APM requires 0 < Mmin < Mmax, got %d/%d", mmin, mmax))
	}
	return &APM{Mmin: mmin, Mmax: mmax}
}

// Name implements Model, rendering the bounds like the paper's figures
// ("APM 3KB-12KB" style shortened to the raw byte bounds).
func (a *APM) Name() string {
	return fmt.Sprintf("APM %s-%s", domain.ByteSize(a.Mmin), domain.ByteSize(a.Mmax))
}

// Decide implements Model.
func (a *APM) Decide(q domain.Range, seg SegmentInfo) Decision {
	if !splittable(q, seg) {
		return Decision{Action: NoSplit}
	}
	// Rule 1: small segments are never split. Rules 2 and 3 imply it
	// (every piece of a segment below Mmin is below Mmin, and Mmin <
	// Mmax), so it only spares the estimates.
	if seg.Bytes < a.Mmin {
		return Decision{Action: NoSplit}
	}
	sp := domain.Cut(seg.Rng, q)
	if a.allPiecesLarge(seg, sp) {
		// Rule 2: the materialized selection reorganizes the segment.
		return Decision{Action: SplitBounds}
	}
	// Rule 3: small pieces would appear. Only large segments are still
	// reorganized, to bound the extra reads paid by point queries.
	if seg.Bytes <= a.Mmax {
		return Decision{Action: NoSplit}
	}
	return a.pointSplit(seg, sp)
}

// allPiecesLarge estimates the pieces of the query-bound split and checks
// rule 2's "all of them have estimated size above Mmin".
func (a *APM) allPiecesLarge(seg SegmentInfo, sp domain.Split) bool {
	for _, p := range sp.Pieces() {
		if seg.estBytes(p) < a.Mmin {
			return false
		}
	}
	return true
}

// pointSplit chooses the rule-3 split point: a query bound whose two-way
// split leaves both sides >= Mmin — preferring, as in Algorithm 4 case 4,
// the bound that keeps the materialized super-set of the selection small —
// falling back to the approximate mean of the segment.
func (a *APM) pointSplit(seg SegmentInfo, sp domain.Split) Decision {
	type candidate struct {
		point   domain.Value
		matLeft bool
	}
	var cands []candidate
	// Splitting at the overlap's high bound keeps the selection in the
	// left piece; at low-1, in the right piece.
	if !sp.Right.IsEmpty() {
		cands = append(cands, candidate{point: sp.Overlap.Hi, matLeft: true})
	}
	if !sp.Left.IsEmpty() {
		cands = append(cands, candidate{point: sp.Overlap.Lo - 1, matLeft: false})
	}
	if len(cands) == 2 {
		// Alg. 4 case 4: prefer the smaller materialized side.
		// mat side for cands[0] is [s.low, qh]; for cands[1] it is [ql, s.hgh].
		left := sp.Overlap.Hi - seg.Rng.Lo
		right := seg.Rng.Hi - sp.Overlap.Lo
		if right < left {
			cands[0], cands[1] = cands[1], cands[0]
		}
	}
	for _, c := range cands {
		lo := seg.estBytes(domain.Range{Lo: seg.Rng.Lo, Hi: c.point})
		hi := seg.estBytes(domain.Range{Lo: c.point + 1, Hi: seg.Rng.Hi})
		if lo >= a.Mmin && hi >= a.Mmin {
			return Decision{Action: SplitPoint, Point: c.point, MatLeft: c.matLeft}
		}
	}
	// Mean fallback ("an approximation of the mean value in the segment").
	mean := seg.Rng.Lo + (seg.Rng.Hi-seg.Rng.Lo)/2
	// The materialized side is the one holding the larger share of the
	// selection overlap.
	lowShare := sp.Overlap.Intersect(domain.Range{Lo: seg.Rng.Lo, Hi: mean}).Width()
	matLeft := lowShare*2 >= sp.Overlap.Width()
	return Decision{Action: SplitPoint, Point: mean, MatLeft: matLeft}
}
