// Package selforg is a Go implementation of the self-organizing
// column-store strategies of Ivanova, Kersten and Nes, "Self-organizing
// Strategies for a Column-store Database" (EDBT 2008):
//
//   - adaptive segmentation (§4): a column is kept as adjacent,
//     non-overlapping, value-ranged segments that range selections split
//     in place;
//   - adaptive replication (§5): query results are retained as
//     materialized replica segments in a replica tree; fully replicated
//     parents are dropped to reclaim storage.
//
// Both strategies consult a segmentation model — the randomized Gaussian
// Dice or the deterministic Adaptive Pagination Model (§3.2) — to decide,
// query by query, whether a selection should reorganize the column.
//
// The entry point is New, which wraps a value slice into an adaptive
// Column; every Select both answers the query and, when the model agrees,
// improves the layout for future queries:
//
//	col, _ := selforg.New(selforg.Interval{0, 999_999}, values, selforg.Options{
//		Strategy: selforg.Segmentation,
//		Model:    selforg.APM,
//	})
//	result, stats := col.Select(205_100, 205_120)
//
// # Adaptive compression
//
// The same self-organizing loop can choose each segment's storage
// encoding (internal/compress): lightweight run-length, dictionary and
// frame-of-reference encodings alongside the plain layout, each with
// range-selection fast paths that skip whole runs, prune through the
// sorted dictionary, or prune on the min-max frame without
// decompressing. With Options.Compression set to CompressionAuto, every
// segment a query materializes or splits is profiled by an advisor that
// picks the minimum-estimated-size encoding — compression decisions
// piggy-back on queries exactly as splitting does, so hot regions
// converge to their best physical format with no offline pass. Stats
// then reports both the logical (StorageBytes) and physical
// (CompressedBytes) footprint after each query:
//
//	col, _ := selforg.New(extent, values, selforg.Options{
//		Model:       selforg.APM,
//		Compression: selforg.CompressionAuto,
//	})
//	_, st := col.Select(205_100, 205_120)
//	saved := st.StorageBytes - st.CompressedBytes
//
// The design follows Fehér & Lucani's adaptive column-compression family
// and Bruno's analysis of compression in C-store scans (see PAPERS.md);
// Count and Sum additionally use the encodings' counting and summing fast
// paths — and every segment's (count, sum) summary — to answer
// aggregates without copying a single value.
//
// # Concurrent execution
//
// A Column is safe for concurrent use: any number of goroutines may call
// Select, Count and BulkLoad on the same column while it self-organizes.
// Readers scan immutable segment snapshots published through an atomic
// pointer; every query applies the reorganization it triggers behind a
// single-writer path, where duplicate splits of concurrent scans
// coalesce. Options.Parallelism additionally fans one query's per-segment
// scans out across a bounded worker pool:
//
//	col, _ := selforg.New(extent, values, selforg.Options{
//		Model:       selforg.APM,
//		Parallelism: 8,
//	})
//
// Results are byte-identical to serial execution at every Parallelism
// setting; see ARCHITECTURE.md for the precise guarantees and
// examples/concurrent for a runnable multi-client demonstration.
//
// # Point writes (MVCC delta store)
//
// Single-row Insert, Update and Delete land in a per-column MVCC write
// store (internal/delta) and are overlaid onto every later query's
// segment scan — the in-memory realization of the delta-BAT merge the
// paper's §2 plans perform. A query pins a (segment snapshot, delta
// watermark) pair at start, so a write is visible exactly to the
// queries started after it; View exposes the same pinned pair as a
// long-lived read-only view. Accumulated writes are drained into the
// base segments by a self-organizing merge-back (Options.DeltaMaxBytes
// / DeltaMaxRatio), after which the ordinary reorganization loop
// splits and re-encodes the merged rows:
//
//	col.Insert(205_117)
//	col.Update(205_117, 205_118)
//	col.Delete(205_118)
//	col.MergeDeltas() // explicit checkpoint; auto-merge is the default
//
// # Domain sharding
//
// Options.Shards range-partitions the column domain into K independently
// locked shards (internal/shard), each owning its own segment list,
// model state, compression advisor and MVCC delta store. Queries route
// to the minimal shard subset overlapping their predicate and merge
// sub-results in shard order; point writes touch exactly one shard's
// locks, so concurrent writers on disjoint ranges no longer contend, and
// delta merge-backs trigger per shard. Shards: 1 (the default) is a
// one-shard router, byte-identical to its one unsharded strategy:
//
//	col, _ := selforg.New(extent, values, selforg.Options{
//		Model:  selforg.APM,
//		Shards: 4,
//	})
//
// The experiment harnesses that reproduce the paper's evaluation live in
// internal/sim (§6.1) and internal/sky (§6.2), runnable through
// cmd/sosim and cmd/skybench; the MonetDB-style substrate (BATs, MAL, the
// tactical segment optimizer, the buffer pool) lives under internal/ and
// is demonstrated by internal/opt's ExampleOptimizer_Optimize.
package selforg

import (
	"cmp"
	"fmt"

	"selforg/internal/compress"
	"selforg/internal/core"
	"selforg/internal/delta"
	"selforg/internal/domain"
	"selforg/internal/durable"
	"selforg/internal/result"
	"selforg/internal/shard"
)

// Strategy selects the self-organizing technique.
type Strategy = shard.Strategy

const (
	// Segmentation reorganizes the column in place (§4). Minimal storage,
	// higher start-up cost.
	Segmentation = shard.Segmentation
	// Replication retains query results as replicas in a replica tree
	// (§5). Extra storage, lower reorganization overhead.
	Replication = shard.Replication
)

// Model selects the segmentation model (§3.2).
type Model = shard.Model

const (
	// APM is the deterministic Adaptive Pagination Model: bounds Mmin and
	// Mmax steer segment sizes into [Mmin, Mmax]. Best long-term overhead
	// reduction (§8).
	APM = shard.APM
	// GD is the randomized Gaussian Dice: split probability peaks for
	// selections halving a segment. Lowest initial overhead (§8).
	GD = shard.GD
	// None disables reorganization: every query scans whole segments as
	// they are. This is the paper's non-segmented baseline.
	None = shard.None
)

// Compression selects the per-segment storage-encoding policy of the
// internal/compress subsystem. The zero value keeps the legacy
// uncompressed layout.
type Compression int

const (
	// CompressionOff stores segments as raw value slices (the default).
	CompressionOff Compression = iota
	// CompressionAuto lets the advisor pick the minimum-estimated-size
	// encoding for every segment the self-organizing loop materializes.
	CompressionAuto
	// CompressionPlain forces the plain encoding (isolates the cost of
	// the compression indirection in benchmarks).
	CompressionPlain
	// CompressionRLE forces run-length encoding.
	CompressionRLE
	// CompressionDict forces dictionary encoding.
	CompressionDict
	// CompressionFOR forces frame-of-reference encoding.
	CompressionFOR
)

func (c Compression) String() string { return c.mode().String() }

// mode maps the public knob onto the subsystem's policy type.
func (c Compression) mode() compress.Mode {
	switch c {
	case CompressionAuto:
		return compress.Auto
	case CompressionPlain:
		return compress.ForcePlain
	case CompressionRLE:
		return compress.ForceRLE
	case CompressionDict:
		return compress.ForceDict
	case CompressionFOR:
		return compress.ForceFOR
	default:
		return compress.Off
	}
}

// Interval is an inclusive value range [Lo, Hi].
type Interval struct {
	Lo, Hi int64
}

// Options configures a Column. The zero value selects adaptive
// segmentation under APM with the paper's simulation bounds.
type Options struct {
	Strategy Strategy
	Model    Model
	// APMMin/APMMax are the APM byte bounds (defaults 3 KB / 12 KB, the
	// §6.1 setup).
	APMMin, APMMax int64
	// GDSeed makes the Gaussian Dice deterministic (default 1).
	GDSeed int64
	// ElemSize is the accounted storage per value in bytes (default 4,
	// matching the paper's 4-byte columns).
	ElemSize int64
	// Tracer observes segment lifecycle events (optional). It is called
	// from the querying goroutine, in plan order — the paper's serial
	// order for one querying goroutine at every Parallelism. It is
	// called concurrently only when several goroutines query the column,
	// or on a sharded column with an explicit Parallelism > 1 (touched
	// shards are scanned concurrently); it must then be safe for
	// concurrent use.
	Tracer Tracer
	// AutoTune replaces the fixed APM bounds by the self-tuning variant
	// (§8 future work): Mmin/Mmax track the observed selection sizes,
	// clamped into [APMMin, APMMax]. Only meaningful with Model == APM.
	AutoTune bool
	// MaxStorageBytes bounds replica storage for Replication columns
	// (0 = unlimited) — the §8 "storage limitations" extension. Replicas
	// that would exceed the budget are declined; queries stay correct.
	MaxStorageBytes int64
	// MaxTreeDepth bounds the replica tree depth for Replication columns
	// (0 = unlimited).
	MaxTreeDepth int
	// Compression selects the adaptive per-segment storage encoding
	// (default CompressionOff). Encoding choice piggy-backs on the same
	// queries that drive reorganization; results are identical for every
	// setting, only the physical layout and the read/write volumes
	// change.
	Compression Compression
	// Parallelism bounds the worker pool a single query may fan its
	// per-segment scans out to. 0 (the default) is adaptive: the fan-out
	// is picked per query from the snapshot's segment count and scan
	// volume, so large multi-segment scans parallelize and small ones
	// stay serial; 1 forces serial execution; n > 1 bounds the fan-out
	// at n. Results, stats and layout evolution are byte-identical to
	// the serial path at every setting — only wall-clock changes. Safety
	// for concurrent Select calls from multiple goroutines does not
	// depend on this knob; a Column is always safe for concurrent use.
	// On a sharded column (Shards > 1) the same bound covers both
	// levels: n > 1 scans up to n touched shards concurrently (each
	// shard serial), and 0 lets the router and every shard adapt
	// independently — one query never exceeds the configured budget.
	Parallelism int
	// DeltaMaxBytes triggers the self-organizing merge-back of the MVCC
	// write store: a write that leaves more than this many bytes pending
	// drains the store into the base inline (default 64 KB; < 0 disables
	// the trigger).
	DeltaMaxBytes int64
	// DeltaMaxRatio is the companion trigger on the pending-to-base
	// ratio (default 0.10; < 0 disables the trigger). With both triggers
	// disabled, pending writes stay in the delta store until MergeDeltas
	// is called; queries stay correct either way — the overlay read path
	// serves unmerged writes.
	DeltaMaxRatio float64
	// Shards range-partitions the column domain into this many
	// independently locked shards (internal/shard), each owning its own
	// segment list, model state, compression advisor and MVCC delta
	// store. 0 or 1 (the default) is one shard — the same router over a
	// single strategy, byte-identical to it. With K > 1, queries route to
	// the minimal shard subset overlapping the predicate and merge
	// sub-results in shard order; point writes touch exactly one shard's
	// locks, so concurrent writers on disjoint ranges no longer contend,
	// and delta merge-backs trigger per shard.
	// Each shard gets its own model instance (GDSeed is offset per shard)
	// and MaxStorageBytes is split evenly across shards; a cross-shard
	// Update decomposes into a delete plus an insert (two MVCC versions).
	Shards int
	// Observability configures the column's reporting: which Observer
	// to attach to, per-query phase tracing and the slow-query
	// threshold. The zero value attaches
	// the process-wide DefaultObserver() with tracing off; see the
	// Observability type in observe.go.
	Observability Observability
	// Durability enables the write-ahead-log subsystem (internal/wal +
	// internal/durable): point writes group-commit through per-shard
	// logs and survive a crash; reopening a column over the same
	// directory replays them. The zero value (no Dir) keeps the purely
	// in-memory column, byte-identical to previous releases; see the
	// Durability type in durability.go.
	Durability Durability
}

// Tracer re-exports core.Tracer: Scan/Materialize/Drop events with segment
// id and byte size, used to attach buffer managers or measurement probes.
type Tracer = core.Tracer

// Column is a self-organizing column of int64 values. It is safe for
// concurrent use: readers scan immutable segment-list snapshots published
// through an atomic pointer, while reorganization — still interleaved
// with query execution, as in the paper — runs behind a single-writer
// path: every query applies the reorganization it triggers before it
// returns, revalidated against the current layout, so racing queries
// coalesce instead of redoing each other's work. See ARCHITECTURE.md
// ("Concurrency model") for the exact guarantees: individual queries are
// linearizable against reorganization; cross-query adaptation order
// under contention is not deterministic.
type Column struct {
	strat  *shard.Column
	extent domain.Range
	opts   Options

	// acct accumulates the lifetime totals lock-free; per-query stats
	// are returned by value and need no synchronization.
	acct totalsAcc

	// dur is the group-commit committer when Options.Durability is
	// enabled, nil otherwise — the nil check is the only cost the
	// in-memory write path pays for the subsystem's existence.
	dur *durable.Committer
	// initVals retains the initial load (durable columns only): a shard
	// without a checkpoint rebuilds from its slice of this on recovery.
	initVals []domain.Value
}

// New builds an adaptive column over values, whose domain is extent.
// Values outside extent are rejected (by shard.New, naming the first such
// value and its index). The values slice is consumed: the column takes
// ownership.
func New(extent Interval, values []int64, opts Options) (*Column, error) {
	if extent.Lo > extent.Hi {
		return nil, fmt.Errorf("selforg: inverted extent [%d, %d]", extent.Lo, extent.Hi)
	}
	rng := domain.NewRange(extent.Lo, extent.Hi)
	spec := opts.spec()
	if spec.APMMin >= spec.APMMax {
		return nil, fmt.Errorf("selforg: APMMin %d must be below APMMax %d", spec.APMMin, spec.APMMax)
	}
	switch opts.Model {
	case APM, GD, None:
	default:
		return nil, fmt.Errorf("selforg: unknown model %v", opts.Model)
	}
	switch opts.Strategy {
	case Segmentation, Replication:
	default:
		return nil, fmt.Errorf("selforg: unknown strategy %v", opts.Strategy)
	}
	if opts.Shards < 0 {
		return nil, fmt.Errorf("selforg: negative shard count %d", opts.Shards)
	}
	if opts.Durability.Dir != "" {
		return newDurable(rng, values, opts)
	}
	strat, err := shard.Build(spec, rng, values, nil)
	if err != nil {
		return nil, fmt.Errorf("selforg: %w", err)
	}
	col := &Column{strat: strat, extent: rng, opts: opts}
	col.observe()
	return col, nil
}

// spec maps Options onto the strategy stack shard.Build constructs:
// zero fields take their defaults, and a negative merge-back trigger
// disables it.
func (o Options) spec() shard.Spec {
	return shard.Spec{
		Strategy: o.Strategy, Model: o.Model, AutoTune: o.AutoTune,
		APMMin: cmp.Or(o.APMMin, 3*1024), APMMax: cmp.Or(o.APMMax, 12*1024),
		GDSeed: cmp.Or(o.GDSeed, 1), ElemSize: cmp.Or(o.ElemSize, 4), Tracer: o.Tracer,
		Compression: o.Compression.mode(), Parallelism: o.Parallelism,
		MaxStorageBytes: o.MaxStorageBytes, MaxTreeDepth: o.MaxTreeDepth, Shards: o.Shards,
		DeltaMaxBytes: max(cmp.Or(o.DeltaMaxBytes, 64*1024), 0),
		DeltaRatio:    max(cmp.Or(o.DeltaMaxRatio, 0.10), 0),
	}
}

// Shards returns the configured shard count (1 for unsharded columns).
func (c *Column) Shards() int { return c.strat.Shards() }

// Select answers the range query `value between lo and hi` (inclusive) and
// piggy-backs reorganization on the scan, per the configured strategy and
// model. It returns the qualifying values (order unspecified) and the
// query's cost statistics.
func (c *Column) Select(lo, hi int64) ([]int64, Stats) {
	if lo > hi {
		return nil, Stats{}
	}
	res, st := c.strat.Select(domain.Range{Lo: lo, Hi: hi})
	c.acct.query(st)
	return res, st
}

// Rows is a chunked query result: the values of a selection held as an
// ordered list of per-segment (and per-shard) chunks instead of one flat
// slice — the zero-copy shape SelectRows assembles. Chunks that alias
// published segment storage are tracked as borrowed, so Flatten always
// hands back a mutable slice (copying at most once) and Chunks yields
// read-only views. A nil or empty Rows behaves as zero rows.
type Rows struct {
	rope *result.Rope
}

// Len returns the number of values.
func (r *Rows) Len() int {
	if r == nil {
		return 0
	}
	return r.rope.Len()
}

// At returns the i-th value in result order. Random access walks the
// chunk list; iterate with Chunks for sequential reads.
func (r *Rows) At(i int) int64 { return r.rope.At(i) }

// Flatten returns all values as one flat slice, mutable by the caller.
// The copy happens at most once and only when the result spans several
// chunks or borrows segment storage; the result is cached.
func (r *Rows) Flatten() []int64 {
	if r == nil {
		return nil
	}
	return r.rope.Flatten()
}

// Chunks iterates the result's chunks in order until yield returns
// false. The yielded slices must be treated as read-only: they may alias
// the column's own segment storage.
func (r *Rows) Chunks(yield func(vals []int64) bool) {
	if r == nil {
		return
	}
	r.rope.Chunks(yield)
}

// SelectRows is Select with the result left in its chunked form: the
// qualifying values as a Rows — per-segment chunks spliced across
// shards — instead of one flattened slice. Consumers that stream the
// result (the query server's JSON writer) or aggregate over it never pay
// the flat concatenation; Flatten converts when a slice is needed.
// Reorganization piggy-backs exactly as in Select, and
// SelectRows(lo, hi).Flatten() is byte-identical to Select(lo, hi).
func (c *Column) SelectRows(lo, hi int64) (*Rows, Stats) {
	if lo > hi {
		return &Rows{rope: result.New()}, Stats{}
	}
	rope, st := c.strat.SelectRope(domain.Range{Lo: lo, Hi: hi})
	c.acct.query(st)
	return &Rows{rope: rope}, st
}

// Count returns the number of values in [lo, hi] without materializing
// them: segments fully covered by the query are answered from the
// segment meta-index alone, partially covered ones are counted on their
// (possibly compressed) form — RLE counts from run headers without
// touching a row. Counting still drives adaptation like any other query:
// the same splits, replicas and encodings happen as for a Select.
func (c *Column) Count(lo, hi int64) (int64, Stats) {
	if lo > hi {
		return 0, Stats{}
	}
	n, st := c.strat.Count(domain.Range{Lo: lo, Hi: hi})
	c.acct.query(st)
	return n, st
}

// Sum returns the number and the sum of the values in [lo, hi] without
// materializing them — SQL's SUM, answered from the encoding. A segment
// fully covered by the query contributes its (count, sum) summary
// without being read, a partially covered one sums on its compressed
// form (FOR adds the frame once per row to the summed deltas, Dict looks
// up only qualifying codes, RLE multiplies run values by run lengths),
// and pending writes add their net count and sum. Sum drives the same
// adaptation as Count and reads exactly the bytes Count reads. The sum
// wraps on int64 overflow.
func (c *Column) Sum(lo, hi int64) (n, sum int64, st Stats) {
	if lo > hi {
		return 0, 0, Stats{}
	}
	n, sum, st = c.strat.Sum(domain.Range{Lo: lo, Hi: hi})
	c.acct.query(st)
	return n, sum, st
}

// SegmentCount returns the number of materialized segments.
func (c *Column) SegmentCount() int { return c.strat.SegmentCount() }

// StorageBytes returns the physical materialized storage held by the
// column (constant for uncompressed segmentation; grows and shrinks for
// replication; shrinks below UncompressedBytes as segments are encoded).
func (c *Column) StorageBytes() int64 { return int64(c.strat.StorageBytes()) }

// UncompressedBytes returns the logical storage: what StorageBytes would
// be with compression off.
func (c *Column) UncompressedBytes() int64 { return int64(c.strat.UncompressedBytes()) }

// CompressionRatio returns UncompressedBytes over StorageBytes (1 when
// compression is off or nothing is encoded yet).
func (c *Column) CompressionRatio() float64 {
	s := c.StorageBytes()
	if s == 0 {
		return 1
	}
	return float64(c.UncompressedBytes()) / float64(s)
}

// SegmentSizes lists materialized segment sizes in bytes.
func (c *Column) SegmentSizes() []float64 { return c.strat.SegmentSizes() }

// Extent returns the column's value domain.
func (c *Column) Extent() Interval { return Interval{c.extent.Lo, c.extent.Hi} }

// Name describes the configured strategy/model, in the labels the paper
// uses ("APM 3.00KB-12.00KB Segm").
func (c *Column) Name() string { return c.strat.Name() }

// Layout renders the current segment layout for diagnostics: the flat
// segment list for segmentation, the replica tree (with virtual segments
// marked) for replication, a per-shard breakdown when sharded.
func (c *Column) Layout() string { return c.strat.Layout() }

// Validate checks the column's structural invariants — segment adjacency,
// extent coverage and value containment for segmentation; tree tiling and
// coverability for replication. Queries keep a valid column valid; the
// method exists for tests and operational health checks.
func (c *Column) Validate() error { return c.strat.Validate() }

// TreeDepth returns the replica tree depth (0 for segmentation; the
// maximum over the shards when sharded).
func (c *Column) TreeDepth() int { return c.strat.TreeDepth() }

// VirtualCount returns the number of virtual segments (0 for
// segmentation; summed over the shards when sharded).
func (c *Column) VirtualCount() int { return c.strat.VirtualCount() }

// GlueSmall merges adjacent segments smaller than minBytes (segmentation
// only) — the complementary merging strategy sketched in §8 against GD
// fragmentation. It returns the bytes rewritten and reports whether the
// column supports gluing.
func (c *Column) GlueSmall(minBytes int64) (int64, bool) {
	return c.strat.GlueSmall(minBytes)
}

// BulkLoad appends a batch of values to the column, preserving the
// adaptive organization — the "few large bulk loads" half of the paper's
// target application class (§7). Touched segments are rewritten; under
// replication every materialized copy covering a value receives it.
// On a durable column the load checkpoint-fences itself: BulkLoad
// returns only after a full checkpoint has captured the loaded content,
// so an acked bulk load survives a crash exactly like an acked point
// write (the PR 8 "bulk loads bypass the WAL" hole is closed).
func (c *Column) BulkLoad(values []int64) (Stats, error) {
	st, err := c.strat.BulkLoad(values)
	if err != nil {
		return Stats{}, err
	}
	c.acct.add(st)
	if c.dur != nil {
		if err := c.dur.Checkpoint(); err != nil {
			return st, fmt.Errorf("selforg: bulk load checkpoint fence: %w", err)
		}
	}
	return st, nil
}

// Insert adds a single row to the column through the MVCC write store
// (internal/delta). The row is visible to every query started after
// Insert returns and invisible to queries already in flight; it reaches
// the base segments at the next merge-back, where the self-organizing
// loop absorbs it into the adaptive layout. The write may trigger that
// merge-back inline (per Options.DeltaMaxBytes/DeltaMaxRatio), in which
// case its cost is folded into the returned stats.
// With durability enabled the write joins a group commit instead: it
// returns once its batch is logged (and fsynced, per Options.Durability)
// and applied. Batched writes are accounted to Totals by the commit, so
// the per-call Stats are zero.
func (c *Column) Insert(v int64) (Stats, error) {
	_, st, err := c.write(delta.Op{Kind: delta.OpInsert, V: v})
	return st, err
}

// Delete removes one occurrence of v (a pending insert is cancelled, a
// base row is tombstoned). It reports false — and writes nothing — when
// no visible row carries v; the error reports a write-infrastructure
// failure (merge-back, WAL append/fsync, halted committer), so a miss
// and a durability fault are not conflated.
func (c *Column) Delete(v int64) (bool, Stats, error) {
	return c.write(delta.Op{Kind: delta.OpDelete, V: v})
}

// Update atomically replaces one occurrence of old with new: every
// query snapshot sees either the old row or the new one, never both and
// never neither (for sharded columns the both-or-neither guarantee
// holds through pinned Views — see View). It reports false when no
// visible row carries old; the error reports a write-infrastructure
// failure, following Delete's contract.
func (c *Column) Update(old, new int64) (bool, Stats, error) {
	return c.write(delta.Op{Kind: delta.OpUpdate, V: old, New: new})
}

// write is the one body behind Insert, Delete and Update. An insert
// outside the extent is refused here, before it can reach the log. On a
// durable column the op is submitted to the group committer and the
// call blocks until its batch is logged and applied (the batch's costs
// reach Totals through the commit, so the per-call Stats are zero); the
// committer's failures surface as the error, and are also counted in
// WALStats.WriteErrors/LastError. Otherwise the op goes straight to the
// strategy's batch path as a batch of one, as a committed group does.
func (c *Column) write(op delta.Op) (bool, Stats, error) {
	if op.Kind == delta.OpInsert && !c.extent.Contains(op.V) {
		return false, Stats{}, fmt.Errorf("selforg: insert %d outside extent %v", op.V, c.extent)
	}
	if c.dur != nil {
		ok, err := c.dur.Submit(op)
		if err != nil {
			return false, Stats{}, fmt.Errorf("selforg: %w", err)
		}
		return ok, Stats{}, nil
	}
	res, st, err := c.strat.ApplyOps([]delta.Op{op})
	c.acct.add(st)
	return res[0], st, err
}

// MergeDeltas force-drains the pending writes into the base segments
// through the reorganization pipeline, regardless of the Delta*
// thresholds — the explicit checkpoint.
func (c *Column) MergeDeltas() (Stats, error) {
	st, err := c.strat.MergeDeltas()
	c.acct.add(st)
	return st, err
}

// DeltaStats is the MVCC write store's lifetime counters (delta.Stats;
// summed over the shards of a sharded column).
type DeltaStats = delta.Stats

// DeltaStats returns the MVCC write store's lifetime counters: accepted
// writes, pending (unmerged) entries and completed merge-backs.
func (c *Column) DeltaStats() DeltaStats { return c.strat.DeltaStats() }

// View returns a read-only MVCC view pinned at the current (base
// snapshot, delta watermark) pair: writes, splits, drops, bulk loads and
// merge-backs after the pin are invisible through it. Reads through a
// View drive no adaptation and no statistics. Views are stable forever
// for both strategies — a Replication view pins an immutable
// persistent-tree root exactly as a Segmentation view pins an immutable
// segment list, so snapshot isolation holds across any later write.
func (c *Column) View() *View {
	return &View{v: c.strat.Pin()}
}

// View is a pinned read-only MVCC view of a Column. For sharded columns
// it pins one view per shard (in shard order); all shards stamp from
// one column-wide commit clock, and the pin sweep excludes in-flight
// cross-shard updates, so a pinned View observes a cross-shard update
// entirely or not at all. Single-shard writes may still land between
// two shard pins of one sweep.
type View struct {
	v *shard.View
}

// Select returns the values in [lo, hi] as of the pinned view (order
// unspecified).
func (v *View) Select(lo, hi int64) []int64 {
	if lo > hi {
		return nil
	}
	return v.v.SelectRope(domain.Range{Lo: lo, Hi: hi}).Flatten()
}

// SelectRows returns the values in [lo, hi] as of the pinned view, in
// the chunked Rows form (see Column.SelectRows).
func (v *View) SelectRows(lo, hi int64) *Rows {
	if lo > hi {
		return &Rows{rope: result.New()}
	}
	return &Rows{rope: v.v.SelectRope(domain.Range{Lo: lo, Hi: hi})}
}

// Count returns the cardinality of [lo, hi] as of the pinned view.
func (v *View) Count(lo, hi int64) int64 {
	if lo > hi {
		return 0
	}
	return v.v.Count(domain.Range{Lo: lo, Hi: hi})
}

// Watermark returns the pinned MVCC version: writes stamped above it
// are invisible to this view.
func (v *View) Watermark() int64 { return v.v.Watermark() }

// EncodingStats describes the per-encoding storage breakdown of the
// column's materialized segments — one row per encoding the compression
// subsystem knows (plain counts raw segments too).
type EncodingStats struct {
	// Encoding is the encoding's name ("plain", "rle", "dict", "for").
	Encoding string `json:"encoding"`
	// Segments is the number of materialized segments stored in it,
	// Bytes their physical footprint.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
}

// EncodingBreakdown returns one EncodingStats row per encoding, Plain
// first — the PR-1 follow-up counters, also exported by cmd/sosim's TSV
// writer.
func (c *Column) EncodingBreakdown() []EncodingStats {
	es := c.strat.EncodingStats()
	out := make([]EncodingStats, 0, len(compress.Encodings))
	for _, e := range compress.Encodings {
		out = append(out, EncodingStats{
			Encoding: e.String(),
			Segments: es.Segments[e],
			Bytes:    es.Bytes[e],
		})
	}
	return out
}
