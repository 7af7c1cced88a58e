package shard

import (
	"fmt"

	"selforg/internal/compress"
	"selforg/internal/core"
	"selforg/internal/domain"
	"selforg/internal/durable"
	"selforg/internal/model"
	"selforg/internal/segment"
	"selforg/internal/wal"
)

// Strategy selects the self-organizing technique.
type Strategy int

const (
	// Segmentation reorganizes the column in place (§4).
	Segmentation Strategy = iota
	// Replication retains query results as replicas in a replica tree
	// (§5).
	Replication
)

func (s Strategy) String() string {
	if names := [...]string{"segmentation", "replication"}; s >= 0 && int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Model selects the segmentation model (§3.2).
type Model int

const (
	// APM is the deterministic Adaptive Pagination Model (§3.2.2).
	APM Model = iota
	// GD is the randomized Gaussian Dice (§3.2.1).
	GD
	// None never reorganizes: the paper's non-segmented baseline.
	None
)

func (m Model) String() string {
	if names := [...]string{"APM", "GD", "none"}; m >= 0 && int(m) < len(names) {
		return names[m]
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// Spec is a column's strategy stack as Build constructs it. Fields are
// taken literally — defaults are the caller's (the facade's Options, the
// harnesses' configs) — and a zero field is the core strategies' own
// default: no compression, adaptive parallelism, unlimited replicas,
// merge-back triggers off.
type Spec struct {
	Strategy Strategy
	Model    Model
	// APMMin/APMMax are the APM byte bounds; with AutoTune they clamp
	// the self-tuning variant instead.
	APMMin, APMMax int64
	AutoTune       bool
	// GDSeed seeds the Gaussian Dice; shard i draws from
	// model.ShardSeed(GDSeed, i).
	GDSeed int64
	// ElemSize is the accounted bytes per value.
	ElemSize int64
	// Tracer observes every shard's segment lifecycle (nil = none).
	Tracer      core.Tracer
	Compression compress.Mode
	// Parallelism is the one-query scan fan-out (see
	// Column.SetParallelism for how the router splits it).
	Parallelism int
	// MaxStorageBytes is the column's replica budget, split evenly
	// (ceiling) across the shards; MaxTreeDepth bounds every replica
	// tree. Both only apply to Replication; 0 = unlimited.
	MaxStorageBytes int64
	MaxTreeDepth    int
	// Shards range-partitions the extent (≤ 1 = one shard).
	Shards int
	// DeltaMaxBytes and DeltaRatio are the resolved merge-back triggers
	// handed to SetDeltaPolicy (0 disables each).
	DeltaMaxBytes int64
	DeltaRatio    float64
}

// Build constructs spec's strategy stack over vals, whose domain is
// extent: a Column of spec.Shards strategies, one for Shards ≤ 1, so
// every column has the one routed shape. The values slice is consumed.
// With restore non-nil (the durable rebuild), a shard that has a
// checkpoint rebuilds from its checkpointed content instead of its
// slice of vals — a Segmentation shard over the checkpointed segments,
// with no split, a Replication shard as one segment of their values —
// and shards without one (a fresh directory, or a crash that
// interleaved with a checkpoint) keep the initial values and replay
// their whole log. The checkpointed segments are consumed too.
func Build(spec Spec, extent domain.Range, vals []domain.Value, restore *durable.Recovered) (*Column, error) {
	// Partition clamps the shard count to the domain width; dividing by
	// the requested count instead would silently shrink the column-wide
	// budget (ceiling, so a positive budget never rounds to zero).
	ranges := Partition(extent, spec.Shards)
	budget := spec.MaxStorageBytes
	if k := int64(len(ranges)); budget > 0 && k > 1 {
		budget = (budget + k - 1) / k
	}
	ckpt := func(idx int) []wal.Segment {
		if restore == nil || idx >= len(restore.HasCkpt) || !restore.HasCkpt[idx] {
			return nil
		}
		return restore.CkptSegments[idx]
	}
	restored := 0
	for i, rng := range ranges {
		segs := ckpt(i)
		if segs == nil {
			continue
		}
		// The checkpoint reader checked that a shard's segments tile one
		// range; it must be this shard's.
		if segs[0].Rng.Lo != rng.Lo || segs[len(segs)-1].Rng.Hi != rng.Hi {
			return nil, fmt.Errorf("%w: shard %d checkpoint covers [%d, %d], shard range is %v",
				wal.ErrCorrupt, i, segs[0].Rng.Lo, segs[len(segs)-1].Rng.Hi, rng)
		}
		restored++
	}
	if restored == len(ranges) {
		vals = nil // every shard restores: partitioning the initial load would be wasted
	}
	build := func(idx int, rng domain.Range, svals []domain.Value) core.DeltaStrategy {
		segs := ckpt(idx)
		if segs != nil && spec.Strategy == Replication {
			svals = nil // the initial slice may share its array with a neighbor
			for _, sg := range segs {
				svals = append(svals, sg.Vals...)
			}
		}
		// One model instance per shard: models are stateful (GD owns a
		// random stream, AutoAPM tunes its bounds).
		var m model.Model = model.Never{}
		switch {
		case spec.Model == APM && spec.AutoTune:
			m = model.NewAutoAPM(spec.APMMin, spec.APMMax)
		case spec.Model == APM:
			m = model.NewAPM(spec.APMMin, spec.APMMax)
		case spec.Model == GD:
			m = model.NewGaussianDice(model.ShardSeed(spec.GDSeed, idx))
		}
		if spec.Strategy == Replication {
			r := core.NewReplicator(rng, svals, spec.ElemSize, m, spec.Tracer)
			r.SetStorageBudget(budget)
			r.SetMaxDepth(spec.MaxTreeDepth)
			r.SetCompression(spec.Compression)
			return r
		}
		var s *core.Segmenter
		if segs != nil {
			pieces := make([]*segment.Segment, len(segs))
			for i, sg := range segs {
				pieces[i] = segment.NewMaterialized(sg.Rng, sg.Vals)
			}
			s = core.NewSegmenterOver(segment.NewListOf(pieces, spec.ElemSize), m, spec.Tracer)
		} else {
			s = core.NewSegmenter(rng, svals, spec.ElemSize, m, spec.Tracer)
		}
		s.SetCompression(spec.Compression)
		return s
	}

	c, err := New(extent, vals, spec.Shards, build)
	if err != nil {
		return nil, err
	}
	c.SetParallelism(spec.Parallelism)
	c.SetDeltaPolicy(spec.DeltaMaxBytes, spec.DeltaRatio)
	return c, nil
}
