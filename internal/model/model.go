// Package model implements the segmentation models of §3.2 — the policies
// that decide, per query and per segment, whether a selection should
// reorganize the column: the randomized Gaussian Dice (GD, §3.2.1) and the
// deterministic Adaptive Pagination Model (APM, §3.2.2), plus Never/Always
// baselines.
//
// Both adaptive strategies (§4 segmentation, §5 replication) consult the
// same models; the Decision type carries enough structure for either
// interpretation (Algorithm 1's in-place splits and Algorithm 4's
// materialized/virtual replica cases).
package model

import (
	"fmt"

	"selforg/internal/domain"
)

// SegmentInfo is the model's view of the segment a query overlaps: its
// value range, its (possibly estimated) size and the size of the whole
// column. Sizes are in bytes, matching the Mmin/Mmax bounds and the
// SizeS/TotSize ratio of the paper.
type SegmentInfo struct {
	Rng        domain.Range
	Bytes      int64 // SizeS
	TotalBytes int64 // TotSize (whole column)
}

// estBytes estimates the size of a piece of the segment assuming values
// spread uniformly over the segment's range (§3.2.2 "using estimates of
// the segment sizes").
func (s SegmentInfo) estBytes(piece domain.Range) int64 {
	return s.Rng.Prorate(s.Bytes, piece)
}

// Action says how the segment should be reorganized.
type Action int

const (
	// NoSplit leaves the segment intact (Alg. 4 case 0: for a virtual
	// segment the replicator materializes it whole, without splitting).
	NoSplit Action = iota
	// SplitBounds splits the segment at the query bounds into the 2–3
	// pieces of the overlap geometry (Alg. 4 cases 1–3, APM rule 2).
	SplitBounds
	// SplitPoint splits the segment two-ways at Decision.Point (APM rule
	// 3 / Alg. 4 case 4: "among the query bounds or an approximation of
	// the mean value in the segment").
	SplitPoint
)

func (a Action) String() string {
	switch a {
	case NoSplit:
		return "no-split"
	case SplitBounds:
		return "split-bounds"
	case SplitPoint:
		return "split-point"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Decision is the outcome of consulting a model for one (query, segment)
// pair.
type Decision struct {
	Action Action
	// Point is the two-way cut for SplitPoint: values <= Point go to the
	// left piece. Unused otherwise.
	Point domain.Value
	// MatLeft tells the replicator which side of a SplitPoint becomes the
	// materialized super-set of the selection (Alg. 4 case 4 picks the
	// smaller side containing a query bound).
	MatLeft bool
}

// Model is a segmentation policy.
type Model interface {
	// Name identifies the model in experiment output ("GD", "APM 1-25").
	Name() string
	// Decide returns the reorganization decision for query range q against
	// segment seg. q must overlap seg.Rng.
	Decide(q domain.Range, seg SegmentInfo) Decision
}

// splittable reports whether the overlap geometry offers any split point at
// all: a query covering the whole segment, or a one-value segment, cannot
// split it.
func splittable(q domain.Range, seg SegmentInfo) bool {
	if seg.Rng.Width() < 2 {
		return false
	}
	return domain.Classify(seg.Rng, q) != domain.CoversAll
}
