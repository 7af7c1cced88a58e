// Package shard implements domain-sharded self-organizing columns: one
// logical column range-partitioned into K independently locked shards,
// each owning its own segment list (or replica tree), segmentation-model
// state, compression codec and MVCC delta store.
//
// The motivation is the follow-up the cracking/adaptive-merging line
// records for single-writer adaptive stores: reorganization piggy-backs
// on queries, so write-heavy and mixed workloads serialize on the one
// writer lock guarding the column. Partitioning the key domain makes
// reorganization embarrassingly parallel — a split in shard 2 never
// contends with a merge-back in shard 5 — while the immutable-snapshot
// read path keeps cross-shard queries cheap: a query routes to the
// minimal shard subset overlapping its predicate, scans each shard's
// snapshot (optionally fanning the per-shard scans out through
// core.FanOut, the engine's one bounded worker pool) and concatenates the
// sub-results in shard order, so results are deterministic.
//
// Every column is a Column: Build makes a one-shard router for a Spec of
// zero or one shards. A single-shard Column's reads delegate to the one
// underlying strategy and its writes take ApplyOps' routed body with
// every op owned by shard 0, so K=1 is byte-identical (results, stats
// and layout evolution) to using the strategy directly.
//
// # Locking invariants
//
//   - Each shard retains its own single-writer mutex and delta-store
//     mutex. The router adds exactly one lock of its own: xmu, a
//     read-write mutex taken in write mode only by cross-shard updates
//     (two shards' stores mutate under one commit stamp) and in read
//     mode only by Pin's multi-shard pin sweep. Single-shard writes and
//     live queries never touch it.
//   - Every shard's delta store stamps its batches from ONE shared
//     column-wide commit clock (delta.Clock), so a cross-shard update's
//     delete half and insert half carry the same version.
//   - Which shard a write belongs to is decided in exactly one place,
//     Router.Route, for ApplyOps — the router's one write body, behind
//     the single-op methods too — and, through durable.Router, for the
//     group committer's log fan-out. A cross-shard update is one stamped
//     delete/insert pair under xmu.
//   - A live query pins each touched shard's (segment snapshot, delta
//     watermark) pair independently, in shard order. Consistency is
//     therefore per shard: a concurrent writer may land between two
//     shard pins of one multi-shard query. Within a shard the full MVCC
//     guarantees of internal/core hold unchanged. Pin (the explicit
//     View) is stronger: its sweep runs under xmu's read half, so a
//     pinned View observes a cross-shard update entirely or not at all.
//   - Merge-back thresholds are evaluated per shard against that shard's
//     own delta store and base size, so a hot shard merges back without
//     stalling its siblings.
package shard

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"selforg/internal/compress"
	"selforg/internal/core"
	"selforg/internal/delta"
	"selforg/internal/domain"
	"selforg/internal/obs"
	"selforg/internal/result"
	"selforg/internal/segment"
)

// Builder constructs the strategy instance owning one shard: idx is the
// shard index, rng the shard's sub-range of the column extent, and vals
// the column values falling into it (in their original relative order;
// the shard takes ownership of the slice). Builders must hand every
// shard its own model instance — models are stateful.
type Builder func(idx int, rng domain.Range, vals []domain.Value) core.DeltaStrategy

// shardStrategy is what a Builder's result must be, and everything the
// router calls on a shard: the full strategy surface, pinned views, the
// shard-labeled observer, the stamped batch on the column-wide commit
// clock and the scan fan-out knob the router splits (both core
// strategies qualify).
type shardStrategy interface {
	core.DeltaStrategy
	Pin() *core.View
	SetObserver(ob *obs.Observer, shardIdx int)
	// ShareDeltaClock rebinds the shard's write store to the column-wide
	// commit clock; ApplyStamped writes a batch with a version minted
	// from it, so a cross-shard update's two halves share one.
	ShareDeltaClock(c *delta.Clock)
	ApplyStamped(ver int64, ops []delta.Op, res []bool) (core.QueryStats, error)
	SetParallelism(n int)
	SetCompression(mode compress.Mode)
}

// Router is a column's partition map — the extent and the shard
// sub-ranges tiling it — and the one place a write's shard is decided.
// It implements durable.Router, so the group committer logs an op in
// the shard that will apply it.
type Router struct {
	extent domain.Range
	ranges []domain.Range // ranges[i] is shard i's sub-domain, ascending, adjacent
}

// NewRouter partitions extent into k shards exactly as New does.
func NewRouter(extent domain.Range, k int) Router {
	return Router{extent: extent, ranges: Partition(extent, k)}
}

// Shards returns the shard count.
func (r Router) Shards() int { return len(r.ranges) }

// Route returns the shard owning op — the owner of V, whose store
// validates and accounts the write — and the shard the written value
// lands in. The two differ only for a cross-shard update (old and new
// both in extent, different owners). An op naming a value outside the
// extent goes to shard 0, whose own extent screen refuses it (and
// replays the refusal deterministically from a log).
func (r Router) Route(op delta.Op) (owner, target int) {
	if !r.extent.Contains(op.V) {
		return 0, 0
	}
	owner = rangeOf(r.ranges, op.V)
	if op.Kind == delta.OpUpdate && r.extent.Contains(op.New) {
		return owner, rangeOf(r.ranges, op.New)
	}
	return owner, owner
}

// ShardOf implements durable.Router: the log that carries op.
func (r Router) ShardOf(op delta.Op) int {
	owner, _ := r.Route(op)
	return owner
}

// CrossShard implements durable.Router: the commit barrier.
func (r Router) CrossShard(op delta.Op) bool {
	owner, target := r.Route(op)
	return owner != target
}

// Column is a domain-sharded self-organizing column. It implements
// core.DeltaStrategy by routing every operation to the minimal shard
// subset and merging per-shard outcomes in shard order. It is safe for
// concurrent use exactly as its shards are.
type Column struct {
	Router
	shards []shardStrategy
	// clock is the column-wide commit clock every shard's delta store
	// stamps from.
	clock *delta.Clock
	// xmu orders cross-shard updates (write half) against multi-shard
	// pin sweeps (read half) — see the package locking invariants.
	xmu sync.RWMutex
	// par is the cross-shard fan-out width for one query (0 = adaptive,
	// 1 = serial, n > 1 = bounded at n). Intra-shard scan fan-out is each
	// shard strategy's own knob; SetParallelism keeps the two consistent.
	par atomic.Int32
	// ob holds the router's resolved observability handles (nil =
	// uninstrumented); per-shard metrics live on the shard strategies
	// themselves, labeled shard="i".
	ob atomic.Pointer[routerObs]
}

// routerObs is the router's resolved metric handle set: routed query
// counters per op (indexed by readOp) and the span-width histogram (how
// many shards one query touched — the routing fan-out distribution).
type routerObs struct {
	q    [3]*obs.Counter
	span *obs.Histogram
}

// SetObserver attaches (or, with nil, detaches) the observability layer:
// the router registers its routing counters and forwards the observer to
// every shard strategy, labeling each with its shard index.
func (c *Column) SetObserver(ob *obs.Observer) {
	if ob == nil {
		c.ob.Store(nil)
		for _, s := range c.shards {
			s.SetObserver(nil, 0)
		}
		return
	}
	ro := &routerObs{span: ob.Registry.Histogram(`selforg_router_span_shards`)}
	for op, name := range readOpNames {
		ro.q[op] = ob.Registry.Counter(fmt.Sprintf("selforg_router_queries_total{op=%q}", name))
	}
	c.ob.Store(ro)
	for i, s := range c.shards {
		s.SetObserver(ob, i)
	}
}

// Partition range-partitions the non-empty extent into k contiguous
// sub-ranges of near-equal width (the first width%k shards are one value
// wider). k is clamped to [1, width] so no shard is ever empty-ranged.
// Widths are counted in uint64: an extent may hold up to 2^64 values,
// where Range.Width wraps.
func Partition(extent domain.Range, k int) []domain.Range {
	// span = width-1 never overflows; width itself does on the full
	// int64 extent, which only k = 1 leaves whole.
	span := uint64(extent.Hi) - uint64(extent.Lo)
	if k <= 1 || span == 0 {
		return []domain.Range{extent}
	}
	if uint64(k-1) > span {
		k = int(span + 1)
	}
	// width = span+1 = base*k + rem, formed without computing span+1.
	base, rem := span/uint64(k), span%uint64(k)+1
	if rem == uint64(k) {
		base, rem = base+1, 0
	}
	out := make([]domain.Range, 0, k)
	lo := extent.Lo
	for i := 0; i < k; i++ {
		w := base
		if uint64(i) < rem {
			w++
		}
		out = append(out, domain.Range{Lo: lo, Hi: lo + domain.Value(w-1)})
		lo += domain.Value(w)
	}
	return out
}

// SplitValues partitions vals by the given shard ranges, preserving the
// relative order of values within each part (the order-preserving
// scatter of a radix partition step): a counting pass sizes every part
// exactly, so a shard's initial segment keeps no slack. Values must all
// lie inside the ranges' union.
func SplitValues(ranges []domain.Range, vals []domain.Value) [][]domain.Value {
	parts := make([][]domain.Value, len(ranges))
	if len(ranges) == 1 {
		parts[0] = vals
		return parts
	}
	counts := make([]int, len(ranges))
	for _, v := range vals {
		counts[rangeOf(ranges, v)]++
	}
	for i, n := range counts {
		if n > 0 {
			parts[i] = make([]domain.Value, 0, n)
		}
	}
	for _, v := range vals {
		i := rangeOf(ranges, v)
		parts[i] = append(parts[i], v)
	}
	return parts
}

// New builds a sharded column over values, whose domain is extent, with
// k shards built by build (k ≤ 1 is one shard). Values outside extent are
// rejected before any shard is constructed — the one extent check of a
// column's construction — and so is a Builder whose strategy is not a
// shard strategy. The values slice is consumed.
func New(extent domain.Range, vals []domain.Value, k int, build Builder) (*Column, error) {
	if extent.IsEmpty() {
		return nil, fmt.Errorf("shard: empty extent %v", extent)
	}
	for i, v := range vals {
		if !extent.Contains(v) {
			return nil, fmt.Errorf("shard: value %d (index %d) outside extent %v", v, i, extent)
		}
	}
	c := &Column{Router: NewRouter(extent, k), clock: delta.NewClock()}
	parts := SplitValues(c.ranges, vals)
	c.shards = make([]shardStrategy, len(c.ranges))
	for i, rng := range c.ranges {
		s, ok := build(i, rng, parts[i]).(shardStrategy)
		if !ok {
			return nil, fmt.Errorf("shard: shard %d's strategy is not a shard strategy (Pin, SetObserver, stamped batches, SetParallelism)", i)
		}
		// One column-wide commit clock, so a cross-shard update can stamp
		// both halves with the same version.
		s.ShareDeltaClock(c.clock)
		c.shards[i] = s
	}
	return c, nil
}

// ShardRange returns shard i's sub-domain.
func (c *Column) ShardRange(i int) domain.Range { return c.ranges[i] }

// Shard returns shard i's strategy instance (read-mostly use:
// diagnostics and tests; the strategy is safe for concurrent use).
func (c *Column) Shard(i int) core.DeltaStrategy { return c.shards[i] }

// Extent returns the column's value domain.
func (c *Column) Extent() domain.Range { return c.extent }

// SetParallelism bounds the scan fan-out of one query, keeping the
// single knob's contract — at most n workers per query — across both
// levels. With n == 0 (the default) the router stays serial across
// shards and every shard independently sizes its intra-shard fan-out
// from its own segment count and scan volume, so no instant exceeds the
// unsharded adaptive cap. With n == 1 everything is serial. With n > 1
// the budget is split statically: the router scans up to n touched
// shards concurrently and each shard may fan out n/K ways (at least 1),
// so a full-span query uses up to n workers and a single-shard query
// n/K — the price of a static split; prefer the adaptive default when
// queries are span-skewed. The policy is forwarded to the shard
// strategies, overriding whatever the Builder set; a single-shard
// column (every column built with Shards ≤ 1) forwards n unchanged, so
// its one strategy spends the whole budget, exactly as unsharded.
func (c *Column) SetParallelism(n int) {
	if n < 0 {
		n = 1
	}
	c.par.Store(int32(n))
	perShard := n
	if k := len(c.shards); k > 1 && n > 1 {
		perShard = n / k
		if perShard < 1 {
			perShard = 1
		}
	}
	for _, s := range c.shards {
		s.SetParallelism(perShard)
	}
}

// rangeOf returns the index of the range containing v (ranges are
// ascending and adjacent; v must lie in their union).
func rangeOf(ranges []domain.Range, v domain.Value) int {
	return sort.Search(len(ranges), func(i int) bool { return ranges[i].Hi >= v })
}

// spanOf returns the half-open index interval [lo, hi) of ranges
// overlapping q — the shard-level meta-index lookup.
func spanOf(ranges []domain.Range, q domain.Range) (int, int) {
	if q.IsEmpty() {
		return 0, 0
	}
	lo := sort.Search(len(ranges), func(i int) bool { return ranges[i].Hi >= q.Lo })
	hi := sort.Search(len(ranges), func(i int) bool { return ranges[i].Lo > q.Hi })
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// snapshot overwrites the storage measures of st with the column-wide
// sums, so sharded per-query stats snapshot the whole column exactly as
// unsharded ones do. Each shard's counters are single atomic loads, so
// an operation never takes another shard's lock; under concurrency the
// sum is a cut of possibly different instants (per-query storage
// snapshots are racy already), never torn per shard. For a single-shard
// column the sums equal the shard's own snapshot, so delegated stats are
// unchanged bit for bit.
func (c *Column) snapshot(st *core.QueryStats) {
	var logical, phys int64
	for _, s := range c.shards {
		logical += int64(s.UncompressedBytes())
		phys += int64(s.StorageBytes())
	}
	st.StorageBytes = logical
	st.CompressedBytes = phys
}

// readOp is the read a routed query performs on every shard it touches.
type readOp uint8

const (
	readRows readOp = iota
	readCount
	readSum
)

// readOpNames labels the ops in metrics, in readOp order.
var readOpNames = [...]string{"select", "count", "sum"}

// shardOut is one shard's answer to a routed read.
type shardOut struct {
	rope   *result.Rope
	n, sum int64
	st     core.QueryStats
}

// read runs op on one shard strategy.
func read(s shardStrategy, q domain.Range, op readOp) shardOut {
	var o shardOut
	switch op {
	case readRows:
		o.rope, o.st = s.SelectRope(q)
	case readCount:
		o.n, o.st = s.Count(q)
	default:
		o.n, o.sum, o.st = s.Sum(q)
	}
	return o
}

// Select implements core.Strategy: route to the overlapping shards, scan
// each (concurrently when the fan-out allows), and concatenate the
// sub-results in shard order. Reorganization piggy-backs inside each
// shard exactly as unsharded.
func (c *Column) Select(q domain.Range) ([]domain.Value, core.QueryStats) {
	o := c.query(q, readRows)
	return o.rope.Flatten(), o.st
}

// SelectRope implements core.RopeSelector: the routed read path with the
// per-shard sub-results spliced chunk-wise in shard order — no value is
// copied at the router layer, regardless of the shard count.
func (c *Column) SelectRope(q domain.Range) (*result.Rope, core.QueryStats) {
	o := c.query(q, readRows)
	return o.rope, o.st
}

// Count implements core.Strategy: the counting pass of Select with
// per-shard counts summed in shard order.
func (c *Column) Count(q domain.Range) (int64, core.QueryStats) {
	o := c.query(q, readCount)
	return o.n, o.st
}

// Sum implements core.Strategy: per-shard (count, sum) pairs added in
// shard order.
func (c *Column) Sum(q domain.Range) (int64, int64, core.QueryStats) {
	o := c.query(q, readSum)
	return o.n, o.sum, o.st
}

// query is the shared routed read path.
func (c *Column) query(q domain.Range, op readOp) shardOut {
	lo, hi := spanOf(c.ranges, q)
	n := hi - lo
	if ro := c.ob.Load(); ro != nil {
		ro.q[op].Inc()
		ro.span.Observe(int64(n))
	}
	switch n {
	case 0:
		out := shardOut{rope: result.New()}
		c.snapshot(&out.st)
		return out
	case 1:
		// Single-shard fast path: pure delegation, no merge step. This is
		// the every-call path of a 1-shard column (byte-identical to the
		// unsharded strategy) and the common path of point-ish queries on
		// K-shard columns.
		out := read(c.shards[lo], q, op)
		c.snapshot(&out.st)
		return out
	}

	outs := make([]shardOut, n)
	core.FanOut(n, c.fanout(), func(i int) {
		outs[i] = read(c.shards[lo+i], q, op)
	})
	// Merge in shard order: the rope splice moves chunk headers, never
	// values, so the router's concatenation cost no longer scales with
	// the result volume times the shard count.
	out := shardOut{rope: result.New()}
	for i := range outs {
		out.st.Add(outs[i].st)
		out.rope.Splice(outs[i].rope)
		out.n += outs[i].n
		out.sum += outs[i].sum
	}
	c.snapshot(&out.st)
	return out
}

// fanout resolves the cross-shard worker count for one query. The
// single Parallelism budget must not multiply across the two levels, so
// exactly one level widens: with the adaptive default (0) the router
// stays serial and each shard adapts its own fan-out from its own
// segment count and scan volume (never exceeding the unsharded adaptive
// cap at any instant); with an explicit budget the router scans shards
// concurrently and SetParallelism has already divided the budget among
// the shards.
func (c *Column) fanout() int {
	par := int(c.par.Load())
	if par == 0 {
		return 1
	}
	return par
}

// Insert implements core.DeltaStrategy: ApplyOps with one op. The row
// lands in the owning shard's delta store, contending only with writers
// of that shard; a value outside the extent is an error.
func (c *Column) Insert(v domain.Value) (core.QueryStats, error) {
	ok, st, err := c.one(delta.Op{Kind: delta.OpInsert, V: v})
	if !ok && err == nil {
		return core.QueryStats{}, fmt.Errorf("shard: insert value %d outside extent %v", v, c.extent)
	}
	return st, err
}

// Delete implements core.DeltaStrategy: ApplyOps with one op, routed to
// the shard owning v.
func (c *Column) Delete(v domain.Value) (bool, core.QueryStats, error) {
	return c.one(delta.Op{Kind: delta.OpDelete, V: v})
}

// Update implements core.DeltaStrategy: ApplyOps with one op — see
// ApplyOps for the cross-shard case.
func (c *Column) Update(old, new domain.Value) (bool, core.QueryStats, error) {
	return c.one(delta.Op{Kind: delta.OpUpdate, V: old, New: new})
}

// one writes a single op as a batch of one.
func (c *Column) one(op delta.Op) (bool, core.QueryStats, error) {
	res, st, err := c.ApplyOps([]delta.Op{op})
	return res[0], st, err
}

// ApplyOps is the router's one write body: ops are partitioned to their
// owning shards in arrival order and each touched shard applies its
// sub-batch under ONE version bump and ONE snapshot publication (core's
// ApplyOps). Ops owned by different shards commute — they touch disjoint
// stores and disjoint base ranges — so the per-shard partition preserves
// every ordering that matters. The one exception is a cross-shard update
// (old and new owned by different shards): the batch is split at it, and
// it runs as a stamped delete in the owning shard and a stamped insert
// in the target shard, both carrying ONE version minted from the shared
// column-wide commit clock, under xmu's write half — so a pinned View,
// whose pin sweep holds xmu's read half, observes the update entirely or
// not at all (live multi-shard scans pin per shard and remain per-shard
// consistent only). DeltaStats counts such an update as one delete plus
// one insert. The group committer isolates cross-shard updates as
// singleton batches, making the split a no-op in the durable pipeline.
// Per-op results follow core's acceptance rules; out-of-extent ops are
// refused (by shard 0's screen) without an error.
func (c *Column) ApplyOps(ops []delta.Op) ([]bool, core.QueryStats, error) {
	var st core.QueryStats
	// One allocation holds the results and, behind them, the answers of
	// the sub-batch in flight; sub is the one buffer every shard's
	// sub-batch is gathered into.
	buf := make([]bool, 2*len(ops))
	res, out := buf[:len(ops):len(ops)], buf[len(ops):]
	sub := make([]delta.Op, 0, len(ops))
	from := 0 // the first op not yet applied
	for k, op := range ops {
		i, j := c.Route(op)
		if i == j {
			continue
		}
		err := c.applyRun(ops, from, k, res, out, sub, &st)
		if err == nil {
			var ust core.QueryStats
			res[k], ust, err = c.crossUpdate(i, j, op)
			st.Add(ust)
		}
		if err != nil {
			c.snapshot(&st)
			return res, st, err
		}
		from = k + 1
	}
	err := c.applyRun(ops, from, len(ops), res, out, sub, &st)
	c.snapshot(&st)
	return res, st, err
}

// applyRun applies ops[from:to], a run holding no cross-shard update,
// shard by shard in ascending order: a shard's ops are gathered into sub
// in arrival order and applied under one version (core's ApplyStamped),
// and its answers, written to out, are scattered back into res by
// routing the run again. Each gathering pass also finds the next shard
// the run touches, so untouched shards cost nothing.
func (c *Column) applyRun(ops []delta.Op, from, to int, res, out []bool, sub []delta.Op, st *core.QueryStats) error {
	owner := func(op delta.Op) int { i, _ := c.Route(op); return i }
	for i := 0; i >= 0; {
		next := -1
		sub = sub[:0]
		for _, op := range ops[from:to] {
			switch o := owner(op); {
			case o == i:
				sub = append(sub, op)
			case o > i && (next < 0 || o < next):
				next = o
			}
		}
		if len(sub) > 0 {
			sst, err := c.shards[i].ApplyStamped(0, sub, out[:len(sub)])
			st.Add(sst)
			j := 0
			for k := from; k < to; k++ {
				if owner(ops[k]) == i {
					res[k] = out[j]
					j++
				}
			}
			if err != nil {
				return err
			}
		}
		i = next
	}
	return nil
}

// crossUpdate applies a cross-shard update as its stamped pair under
// xmu: the delete half in owner shard i, then — if it was accepted — the
// insert half in target shard j.
func (c *Column) crossUpdate(i, j int, op delta.Op) (bool, core.QueryStats, error) {
	c.xmu.Lock()
	defer c.xmu.Unlock()
	ver := c.clock.Next()
	var ok [1]bool
	st, err := c.shards[i].ApplyStamped(ver, []delta.Op{{Kind: delta.OpDelete, V: op.V}}, ok[:])
	if !ok[0] || err != nil {
		return false, st, err
	}
	ist, err := c.shards[j].ApplyStamped(ver, []delta.Op{{Kind: delta.OpInsert, V: op.New}}, ok[:])
	st.Add(ist)
	return true, st, err
}

// MergeDeltas implements core.DeltaStrategy: force-drains every shard's
// write store, shard by shard. Automatic merge-back needs no such sweep —
// each shard's thresholds trigger independently.
func (c *Column) MergeDeltas() (core.QueryStats, error) {
	var st core.QueryStats
	for _, s := range c.shards {
		mst, err := s.MergeDeltas()
		st.Add(mst)
		if err != nil {
			c.snapshot(&st)
			return st, err
		}
	}
	c.snapshot(&st)
	return st, nil
}

// SetCompression attaches mode's codec to every shard, which encodes
// what it already holds. Recovery replays over unencoded shards and
// encodes them once, after the replay.
func (c *Column) SetCompression(mode compress.Mode) {
	for _, s := range c.shards {
		s.SetCompression(mode)
	}
}

// SetDeltaPolicy implements core.DeltaStrategy. The thresholds trigger
// per shard — a shard merges when ITS pending writes trip, so a hot
// shard merges back without stalling its siblings — but maxBytes keeps
// its column-level meaning: it is split evenly across the shards
// (ceiling), so the column-wide pending bound (and the overlay volume
// queries pay) stays comparable at every shard count. The ratio trigger
// is naturally per shard (pending vs that shard's base size) and is
// passed through unchanged.
func (c *Column) SetDeltaPolicy(maxBytes int64, ratio float64) {
	perShard := maxBytes
	if perShard > 0 && len(c.shards) > 1 {
		k := int64(len(c.shards))
		perShard = (maxBytes + k - 1) / k
	}
	for _, s := range c.shards {
		s.SetDeltaPolicy(perShard, ratio)
	}
}

// DeltaStats implements core.DeltaStrategy: per-shard counters summed.
// Watermark is the maximum of the per-shard version high-water marks —
// with the shared commit clock that is the column-wide clock's last
// stamped version. A cross-shard update counts as one delete plus one
// insert.
func (c *Column) DeltaStats() delta.Stats {
	var out delta.Stats
	for _, s := range c.shards {
		ds := s.DeltaStats()
		out.Inserts += ds.Inserts
		out.Updates += ds.Updates
		out.Deletes += ds.Deletes
		out.DeleteMisses += ds.DeleteMisses
		out.Pending += ds.Pending
		out.PendingBytes += ds.PendingBytes
		out.Runs += ds.Runs
		out.Merges += ds.Merges
		out.MergedEntries += ds.MergedEntries
		out.Publications += ds.Publications
		if ds.Watermark > out.Watermark {
			out.Watermark = ds.Watermark
		}
	}
	return out
}

// EncodingStats implements core.DeltaStrategy: per-shard breakdowns
// accumulated.
func (c *Column) EncodingStats() segment.EncodingStats {
	var es segment.EncodingStats
	for _, s := range c.shards {
		es.Add(s.EncodingStats())
	}
	return es
}

// SegmentCount implements core.Strategy.
func (c *Column) SegmentCount() int {
	n := 0
	for _, s := range c.shards {
		n += s.SegmentCount()
	}
	return n
}

// StorageBytes implements core.Strategy.
func (c *Column) StorageBytes() domain.ByteSize {
	var b domain.ByteSize
	for _, s := range c.shards {
		b += s.StorageBytes()
	}
	return b
}

// UncompressedBytes implements core.Strategy.
func (c *Column) UncompressedBytes() domain.ByteSize {
	var b domain.ByteSize
	for _, s := range c.shards {
		b += s.UncompressedBytes()
	}
	return b
}

// SegmentSizes implements core.Strategy: per-shard sizes concatenated in
// shard order. The per-shard slices are collected first and copied once
// into an exactly-sized result, instead of growing one slice across
// shards (which re-copied earlier shards' sizes on every growth).
func (c *Column) SegmentSizes() []float64 {
	parts := make([][]float64, len(c.shards))
	total := 0
	for i, s := range c.shards {
		parts[i] = s.SegmentSizes()
		total += len(parts[i])
	}
	out := make([]float64, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Name implements core.Strategy: the underlying strategy's name, tagged
// with the shard count when sharded.
func (c *Column) Name() string {
	if len(c.shards) == 1 {
		return c.shards[0].Name()
	}
	return fmt.Sprintf("%s x%dsh", c.shards[0].Name(), len(c.shards))
}

// BulkLoad appends a batch of values, scattered to the owning shards
// (order-preserving within each shard) and loaded per shard. Values are
// validated against the extent before any shard is touched.
func (c *Column) BulkLoad(vals []domain.Value) (core.QueryStats, error) {
	var st core.QueryStats
	for i, v := range vals {
		if !c.extent.Contains(v) {
			return st, fmt.Errorf("shard: bulk value %d (index %d) outside extent %v", v, i, c.extent)
		}
	}
	parts := SplitValues(c.ranges, vals)
	for i, s := range c.shards {
		if len(parts[i]) == 0 {
			continue
		}
		bst, err := s.BulkLoad(parts[i])
		st.Add(bst)
		if err != nil {
			return st, err
		}
	}
	c.snapshot(&st)
	return st, nil
}

// GlueSmall merges adjacent small segments within every shard that
// supports gluing (gluing never crosses a shard boundary — boundaries
// are permanent partition points). It reports false when any shard
// declines the capability (replica-tree shards do).
func (c *Column) GlueSmall(minBytes int64) (int64, bool) {
	var rewritten int64
	for _, s := range c.shards {
		n, ok := s.GlueSmall(minBytes)
		if !ok {
			return rewritten, false
		}
		rewritten += n
	}
	return rewritten, true
}

// TreeDepth implements core.TreeShaped: the maximum replica-tree depth
// over the shards (0 when no shard is tree-shaped).
func (c *Column) TreeDepth() int {
	depth := 0
	for _, s := range c.shards {
		if r, ok := s.(core.TreeShaped); ok && r.TreeDepth() > depth {
			depth = r.TreeDepth()
		}
	}
	return depth
}

// VirtualCount implements core.TreeShaped: the total virtual-segment
// count over the shards (0 for segmentation shards).
func (c *Column) VirtualCount() int {
	n := 0
	for _, s := range c.shards {
		if r, ok := s.(core.TreeShaped); ok {
			n += r.VirtualCount()
		}
	}
	return n
}

// Validate checks the router's partition invariants — shard ranges tile
// the extent, adjacent and ascending — and every shard's own structural
// invariants.
func (c *Column) Validate() error {
	if len(c.ranges) == 0 {
		return fmt.Errorf("shard: no shards")
	}
	if c.ranges[0].Lo != c.extent.Lo || c.ranges[len(c.ranges)-1].Hi != c.extent.Hi {
		return fmt.Errorf("shard: ranges %v..%v do not tile extent %v",
			c.ranges[0], c.ranges[len(c.ranges)-1], c.extent)
	}
	for i := 1; i < len(c.ranges); i++ {
		if !c.ranges[i-1].Adjacent(c.ranges[i]) {
			return fmt.Errorf("shard: ranges %v and %v not adjacent", c.ranges[i-1], c.ranges[i])
		}
	}
	for i, s := range c.shards {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("shard %d %v: %w", i, c.ranges[i], err)
		}
	}
	return nil
}

// Layout renders every shard's layout under a per-shard header.
func (c *Column) Layout() string {
	if len(c.shards) == 1 {
		return c.shards[0].Layout()
	}
	var b strings.Builder
	for i := range c.shards {
		layout := c.shards[i].Layout()
		fmt.Fprintf(&b, "shard %d %v:\n%s", i, c.ranges[i], layout)
		if !strings.HasSuffix(layout, "\n") {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
