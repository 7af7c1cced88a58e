// Package core implements the paper's two self-organizing techniques:
// adaptive segmentation (§4, Algorithm 1) and adaptive replication (§5,
// Algorithms 2–5). Both interleave reorganization with query execution —
// "query results are harvested to improve future performance" (§8) — and
// both delegate the split/no-split policy to a segmentation model
// (internal/model: Gaussian Dice or APM).
//
// The package is storage-cost conscious but engine-agnostic: it accounts
// reads and writes in bytes exactly as the paper's simulator does (§6.1)
// and reports segment lifecycle events through an optional Tracer so the
// prototype harness (internal/sky) can layer a buffer pool and a virtual
// disk clock on top.
package core

import (
	"sync"
	"sync/atomic"

	"selforg/internal/delta"
	"selforg/internal/domain"
	"selforg/internal/result"
	"selforg/internal/segment"
)

// Tracer observes segment lifecycle events during query processing. The
// prototype harness uses it to drive the buffer pool; tests use it to
// assert on reorganization behaviour. All methods are called
// synchronously from the querying goroutine, in plan order — never from
// scan workers — so one querying goroutine sees the same sequence at
// every parallelism. It is called concurrently only when several
// goroutines query the strategy, or through a sharded column with an
// explicit parallelism > 1 (its shards are queried concurrently); it
// must then be safe for concurrent use.
type Tracer interface {
	// Scan reports that a materialized segment was read top to bottom.
	Scan(segID int64, bytes int64)
	// Materialize reports that a new segment of the given size was written.
	Materialize(segID int64, bytes int64)
	// Drop reports that a materialized segment was released.
	Drop(segID int64, bytes int64)
}

// nopTracer is used when the caller passes a nil Tracer.
type nopTracer struct{}

func (nopTracer) Scan(int64, int64)        {}
func (nopTracer) Materialize(int64, int64) {}
func (nopTracer) Drop(int64, int64)        {}

// QueryStats aggregates the per-query cost measures of the paper's
// evaluation: memory reads (Figures 7, Table 1), memory writes due to
// segment materialization — query results included — (Figures 5, 6),
// reorganization activity, and the compression subsystem's accounting.
//
// Read and write volumes are physical: scanning or materializing a
// compressed segment costs its encoded size. With compression off,
// physical equals logical everywhere and the measures match the paper's
// exactly.
type QueryStats struct {
	ReadBytes   int64 // physical bytes of segments scanned
	WriteBytes  int64 // physical bytes written materializing segments
	ResultCount int64 // tuples in the selection result
	Splits      int   // segments reorganized by this query
	Drops       int   // replica-tree nodes dropped (replication only)
	Recodes     int   // segments (re-)encoded by this query

	// DeltaReadBytes is the overlay volume: the pending delta entries a
	// query actually examined on top of its base segments — the sorted
	// runs' binary-searched windows plus the unsorted tail (also counted
	// in ReadBytes). Merged counts the delta entries a merge-back
	// drained into the base during this operation.
	DeltaReadBytes int64
	Merged         int

	// StorageBytes and CompressedBytes snapshot the column after the
	// query: logical (uncompressed) bytes held vs physical bytes held.
	// Their difference is the storage the compression subsystem saves;
	// they are equal when compression is off.
	StorageBytes    int64
	CompressedBytes int64
}

// Add accumulates the additive measures of other into s and carries the
// storage snapshot of the later query forward.
func (s *QueryStats) Add(other QueryStats) {
	s.ReadBytes += other.ReadBytes
	s.WriteBytes += other.WriteBytes
	s.ResultCount += other.ResultCount
	s.Splits += other.Splits
	s.Drops += other.Drops
	s.Recodes += other.Recodes
	s.DeltaReadBytes += other.DeltaReadBytes
	s.Merged += other.Merged
	s.StorageBytes = other.StorageBytes
	s.CompressedBytes = other.CompressedBytes
}

// sink is what one read pass produces from its qualifying rows: the rows
// themselves (a rope), their count, or their count and sum. Both
// strategies run one plan/adapt pass for every sink; only the
// per-segment work at the end of it differs. Its String is the op label
// of traces and metrics.
type sink uint8

const (
	sinkRows sink = iota
	sinkCount
	sinkSum
)

func (k sink) String() string { return [...]string{"select", "count", "sum"}[k] }

// total is an aggregate read's answer: the count and the sum of the
// qualifying rows.
type total struct{ n, sum int64 }

func (t *total) add(o total) { t.n, t.sum = t.n+o.n, t.sum+o.sum }

// part is one segment's contribution to a read: a rope chunk for the rows
// sink — borrowed when it aliases published segment storage — or a total
// for the aggregate sinks.
type part struct {
	vals     []domain.Value
	borrowed bool
	total
}

// appendTo adds the part's chunk to the rope with the right ownership
// flag.
func (p *part) appendTo(r *result.Rope) {
	if p.borrowed {
		r.AppendBorrowed(p.vals)
	} else {
		r.AppendOwned(p.vals)
	}
}

// collect is sg's contribution to a read of q through sink k — the one
// per-segment read every strategy and view shares. A segment q covers
// whole lends its materialized slice to the rows sink when its storage
// form has one, and answers the aggregate sinks from its (count, sum)
// summary without reading the payload; a partially covered segment is
// filtered, counted or summed on its (possibly compressed) form, its rows
// chunk presized by AppendSelect.
func collect(sg *segment.Segment, q domain.Range, k sink) part {
	covered := q.ContainsRange(sg.Rng)
	switch {
	case k == sinkRows && covered:
		if vals, ok := sg.BorrowValues(); ok {
			return part{vals: vals, borrowed: true}
		}
		return part{vals: sg.AppendValues(nil)}
	case k == sinkRows:
		return part{vals: sg.AppendSelect(q, nil)}
	case covered:
		return part{total: total{sg.Count(), sg.Sum()}}
	case k == sinkCount:
		return part{total: total{n: sg.SelectCount(q)}}
	}
	n, sum := sg.SelectSum(q)
	return part{total: total{n, sum}}
}

// FanOut is the one bounded worker pool of the engine: it runs do(i)
// exactly once for every i in [0, n) on at most min(par, n) workers and
// returns when all have run. A caller keeps per-index result slots and
// merges them in index order — the outcome is then independent of
// scheduling and byte-identical to serial. With par <= 1 (or n < 2)
// everything runs on the caller's goroutine.
func FanOut(n, par int, do func(i int)) {
	workers := min(par, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			do(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(i)
			}
		}()
	}
	wg.Wait()
}

// Strategy is the common surface of the two self-organizing techniques, as
// consumed by the simulator, the prototype harness and the public facade.
type Strategy interface {
	// Select answers the range query and piggy-backs reorganization on it.
	Select(q domain.Range) ([]domain.Value, QueryStats)
	RopeSelector
	// Count answers `count(*) where v between q.Lo and q.Hi` without
	// materializing the qualifying values, while still piggy-backing the
	// same reorganization (and compression) decisions a Select would.
	Count(q domain.Range) (int64, QueryStats)
	// Sum answers `count(*), sum(v) where v between q.Lo and q.Hi` from
	// the encoding: a segment the query covers whole contributes its
	// (count, sum) summary without being read, a partially covered one
	// sums on its compressed form. It is Count's pass with a summing
	// sink — the same reorganization, the same bytes read. The sum wraps
	// like any int64 sum.
	Sum(q domain.Range) (n, sum int64, st QueryStats)
	// SegmentCount returns the number of data-bearing segments.
	SegmentCount() int
	// StorageBytes returns the total materialized physical storage held
	// (compressed footprint where segments are encoded).
	StorageBytes() domain.ByteSize
	// UncompressedBytes returns the logical storage: what StorageBytes
	// would be with compression off.
	UncompressedBytes() domain.ByteSize
	// SegmentSizes lists materialized segment sizes in bytes (Table 2).
	SegmentSizes() []float64
	// Name identifies the strategy ("Segm"/"Repl") with its model.
	Name() string
}

// DeltaStrategy extends Strategy with the MVCC point-write surface of
// the internal/delta subsystem. Both self-organizing strategies
// implement it: writes land in a per-column write store, queries overlay
// the store onto their segment snapshot, and the merge-back drains the
// store into the base through the single-writer reorganization pipeline.
type DeltaStrategy interface {
	Strategy
	// Insert adds one row. The write is visible to every query pinned
	// after it returns and invisible to queries already in flight.
	Insert(v domain.Value) (QueryStats, error)
	// Delete removes one occurrence of v; it reports false (and does
	// nothing) when no visible row carries v. The error reports a write
	// infrastructure failure (a merge-back the delete triggered, a
	// committer fault on durable wrappers) — distinct from the clean
	// "no visible row" refusal, which is false with a nil error.
	Delete(v domain.Value) (bool, QueryStats, error)
	// Update atomically replaces one occurrence of old with new; every
	// snapshot sees either the old row or the new one, never both. The
	// false/error split follows Delete's.
	Update(old, new domain.Value) (bool, QueryStats, error)
	// ApplyOps applies a batch of writes under one version bump and one
	// snapshot publication (none when every op is refused) — the one
	// write unit: Insert, Delete and Update are batches of one. The
	// error only reports a merge-back failure.
	ApplyOps(ops []delta.Op) ([]bool, QueryStats, error)
	// BulkLoad appends a batch of values through the single-writer
	// rewrite pipeline, preserving the adaptive organization.
	BulkLoad(vals []domain.Value) (QueryStats, error)
	// MergeDeltas force-drains the write store into the base through the
	// reorganization pipeline, regardless of the merge thresholds.
	MergeDeltas() (QueryStats, error)
	// SetDeltaPolicy configures the self-organizing merge-back triggers:
	// a write that leaves more than maxBytes pending, or more than
	// ratio × base logical size, drains the store inline (0 disables the
	// respective trigger; both 0 = manual merging only).
	SetDeltaPolicy(maxBytes int64, ratio float64)
	// DeltaStats returns the write store's lifetime counters.
	DeltaStats() delta.Stats
	// EncodingStats returns the per-encoding storage breakdown of the
	// materialized segments.
	EncodingStats() segment.EncodingStats
	// Layout renders the current physical layout for diagnostics: the
	// flat segment list, the replica tree, or the per-shard breakdown.
	Layout() string
	// Validate checks the structural invariants (segment adjacency and
	// coverage, tree tiling). Queries keep a valid column valid; this
	// exists for tests and operational health checks.
	Validate() error
	// GlueSmall merges adjacent segments smaller than minBytes — the §8
	// merging extension. It returns the bytes rewritten and whether the
	// strategy supports gluing at all (replica trees do not).
	GlueSmall(minBytes int64) (int64, bool)
}

// RopeSelector is the zero-copy read half of Strategy: every strategy
// assembles its result as a rope of per-segment chunks
// (internal/result), so the shard router, the facade and the server
// splice and stream sub-results instead of flattening at every layer.
// SelectRope must be value- and order-identical to Select; Select is
// exactly SelectRope().Flatten().
type RopeSelector interface {
	// SelectRope answers the range query as a rope of result chunks,
	// piggy-backing the same reorganization a Select would.
	SelectRope(q domain.Range) (*result.Rope, QueryStats)
}

// TreeShaped is the capability of strategies organized as a replica
// tree (the Replicator): depth and virtual-segment inspection.
type TreeShaped interface {
	// TreeDepth returns the replica tree depth.
	TreeDepth() int
	// VirtualCount returns the number of virtual (unmaterialized)
	// segments.
	VirtualCount() int
}
