package core

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"selforg/internal/compress"
	"selforg/internal/delta"
	"selforg/internal/domain"
	"selforg/internal/model"
	"selforg/internal/obs"
	"selforg/internal/result"
	"selforg/internal/segment"
)

// Segmenter implements adaptive segmentation (§4, Algorithm 1): the column
// is a sequence of adjacent non-overlapping segments, initially one; each
// range selection may split the segments it overlaps, as decided by the
// segmentation model. This is "eager materialization" (§3.3): the selected
// sub-segment is kept and the remaining sub-segments are materialized
// immediately, which makes the initial queries pay the reorganization cost.
//
// When a compression codec is attached, storage-encoding decisions
// piggy-back on the same loop: every segment a query materializes (the
// sub-segments of a split, glued runs, bulk-loaded rewrites) is handed to
// the codec's advisor, so the physical format adapts to the data exactly
// where the layout adapts to the queries.
//
// # Concurrency model
//
// The Segmenter is safe for concurrent use. Segment lists are immutable
// snapshots published through an atomic pointer, so a scan never observes
// a half-reorganized column. Every query runs one protocol (see run): it
// takes the writer mutex eng.Mu to plan — pin the (list, delta) pair and
// consult the stateful model for each partially covered segment,
// microseconds — and gives it back before any segment payload is read.
// A plan that holds no split never takes the lock again, so pure reads
// never serialize behind each other, behind reorganization, bulk loads or
// merge-backs; a plan that splits re-takes it once, after its scans, to
// apply its split intents, each re-validated against the current list by
// segment identity so identical piggy-backed work from concurrent scans
// coalesces into one application instead of racing.
//
// All reorganization — split application, gluing, re-encoding, bulk
// loads, merge-backs — happens under eng.Mu. Retired snapshots are
// reclaimed by the garbage collector once their last reader drops them
// (RCU-style retirement).
//
// With SetParallelism(n > 1), the per-segment scan work of a single query
// fans out across n workers (FanOut); the per-segment results are merged
// in segment order, so results are deterministic and byte-identical to
// the serial path. Scan workers never call the Tracer: the query's own
// goroutine emits every event, in plan order, while it assembles the
// result, so one querying goroutine sees Algorithm 1's event order at
// every parallelism. Several goroutines querying the column call the
// Tracer concurrently.
type Segmenter struct {
	// eng owns the published (list, delta) pair, the writer mutex and
	// the merge-back protocol, shared with the Replicator. eng.Mu is the
	// single-writer path: model decisions (the models are stateful — GD
	// owns a random stream, AutoAPM tunes its bounds) and every list
	// mutation happen under it; scans never do.
	eng engine[segment.List]
	// deltaWriter is the MVCC point-write surface (delta.go), shared with
	// the Replicator.
	deltaWriter
	mod    model.Model
	tracer Tracer
	codec  atomic.Pointer[compress.Codec] // nil = compression off
	// totalBytes is the logical column size, the TotSize of the GD model;
	// stored is the physical footprint, maintained incrementally as
	// segments are rewritten so per-query snapshots stay O(1).
	totalBytes atomic.Int64
	stored     atomic.Int64
	// par is the per-query scan fan-out width (0 = adaptive, 1 = serial,
	// n > 1 = bounded at n).
	par atomic.Int32
	// ob is the resolved observability handle set (nil = uninstrumented;
	// the query path pays one atomic load either way).
	ob atomic.Pointer[strategyObs]
}

// NewSegmenter builds the strategy over a fresh single-segment column
// covering extent and holding vals. elemSize is the accounted bytes per
// value; tracer may be nil.
func NewSegmenter(extent domain.Range, vals []domain.Value, elemSize int64, m model.Model, tracer Tracer) *Segmenter {
	return NewSegmenterOver(segment.NewList(extent, vals, elemSize), m, tracer)
}

// NewSegmenterOver builds the strategy over an existing layout of
// unencoded segments — the layout a checkpoint restored. The list's
// extent and element size are the column's.
func NewSegmenterOver(l *segment.List, m model.Model, tracer Tracer) *Segmenter {
	if tracer == nil {
		tracer = nopTracer{}
	}
	s := &Segmenter{mod: m, tracer: tracer}
	s.eng.initEngine(l, l.ElemSize())
	s.initWriter(s.eng.Delta, l.Extent(), l.ElemSize(), &s.totalBytes, &s.ob, s)
	s.totalBytes.Store(int64(l.TotalBytes()))
	s.stored.Store(int64(l.TotalBytes()))
	// The initial segments are materialized storage the buffer layer
	// should know about.
	for i := 0; i < l.Len(); i++ {
		s.tracer.Materialize(l.Seg(i).ID, int64(l.Seg(i).Bytes(l.ElemSize())))
	}
	return s
}

// SetParallelism sets the bounded worker count a single query may fan its
// per-segment scans out to. 0 (the default) picks the fan-out per query
// from the snapshot's overlapping segment count and scan volume — large
// multi-segment scans use up to GOMAXPROCS workers, small ones stay
// serial; 1 forces serial execution; n > 1 bounds the fan-out at n.
// Safety for concurrent Select calls does not depend on this knob; it
// only widens intra-query scans, and the Tracer's event order does not
// depend on it.
func (s *Segmenter) SetParallelism(n int) {
	if n < 0 {
		n = 1
	}
	s.par.Store(int32(n))
}

// Adaptive parallelism thresholds: a query fans out only when it spans
// at least adaptiveMinTasks segments and adaptiveMinBytes of physical
// scan volume — below that, goroutine hand-off costs more than the scan.
const (
	adaptiveMinTasks = 4
	adaptiveMinBytes = 4 << 20
)

// adaptiveFanout picks the per-query worker count for Parallelism == 0:
// serial for small scans, up to GOMAXPROCS (capped at 16) workers for
// scans wide and heavy enough to amortize the fan-out. The decision is
// taken from the unit of work actually in front of the query — the
// overlapping segments of ONE strategy instance — so in a sharded column
// (internal/shard) every shard sizes its fan-out from its own segment
// count and scan volume, and a small hot shard never inherits the
// fan-out a large column-wide scan would justify.
func adaptiveFanout(nTasks int, scanBytes int64) int {
	if nTasks < adaptiveMinTasks || scanBytes < adaptiveMinBytes {
		return 1
	}
	par := runtime.GOMAXPROCS(0)
	if par > nTasks {
		par = nTasks
	}
	if par > 16 {
		par = 16
	}
	return par
}

// SetObserver attaches (or, with a nil observer, detaches) the
// observability layer: metric handles are resolved once here, gauge
// callbacks — all lock-free: atomics and immutable snapshots only — are
// registered under this instance's strategy/shard labels, and subsequent
// queries, writes and reorganizations account against them. shardIdx
// labels the series ("0" for an unsharded column).
func (s *Segmenter) SetObserver(ob *obs.Observer, shardIdx int) {
	if ob == nil {
		s.ob.Store(nil)
		return
	}
	so := newStrategyObs(ob, "segm", shardIdx)
	s.ob.Store(so)
	s.eng.setPublishCounter(ob.Registry.Counter(so.seriesName("selforg_publications_total")))
	reg := ob.Registry
	reg.GaugeFunc(so.seriesName("selforg_delta_pending_bytes"), s.eng.Delta.PendingBytes)
	reg.GaugeFunc(so.seriesName("selforg_storage_bytes"), s.stored.Load)
	reg.GaugeFunc(so.seriesName("selforg_storage_uncompressed_bytes"), s.totalBytes.Load)
	reg.GaugeFunc(so.seriesName("selforg_segments"), func() int64 {
		return int64(s.eng.Base().Len())
	})
}

// SetCompression attaches the compression subsystem: subsequent
// materializations are encoded under mode, and the existing segments are
// re-encoded immediately (the construction-time counterpart of the
// initial Materialize event). The re-encoded list is built copy-on-write
// and published atomically, so concurrent readers keep a consistent
// snapshot. Off detaches the codec, decoding nothing — already encoded
// segments stay encoded and decay lazily as splits rewrite them.
func (s *Segmenter) SetCompression(mode compress.Mode) {
	s.eng.Mu.Lock()
	defer s.eng.Mu.Unlock()
	list := s.eng.Base()
	codec := compress.NewCodec(mode, list.ElemSize())
	s.codec.Store(codec)
	if codec.Enabled() {
		list = list.Encoded(codec)
		s.eng.Publish(list)
	}
	s.stored.Store(int64(list.StoredBytes()))
}

// Compression returns the active compression mode.
func (s *Segmenter) Compression() compress.Mode { return s.codec.Load().Mode() }

// Name implements Strategy.
func (s *Segmenter) Name() string { return s.mod.Name() + " Segm" }

// List exposes the current meta-index snapshot (read-only use:
// diagnostics, validation in tests, Table 2 statistics). The snapshot is
// immutable; later reorganization publishes successors without touching
// it.
func (s *Segmenter) List() *segment.List { return s.eng.Base() }

// SegmentCount implements Strategy.
func (s *Segmenter) SegmentCount() int { return s.eng.Base().Len() }

// StorageBytes implements Strategy: the physical storage held. Adaptive
// segmentation reorganizes in place, so without compression this is
// always exactly the column size; with compression it shrinks as the
// advisor encodes segments.
func (s *Segmenter) StorageBytes() domain.ByteSize { return domain.ByteSize(s.stored.Load()) }

// UncompressedBytes implements Strategy.
func (s *Segmenter) UncompressedBytes() domain.ByteSize {
	return domain.ByteSize(s.totalBytes.Load())
}

// SegmentSizes implements Strategy.
func (s *Segmenter) SegmentSizes() []float64 { return s.eng.Base().SegmentBytes() }

// EncodingStats implements DeltaStrategy: the per-encoding storage
// breakdown of the current snapshot (satisfied without locking — the
// snapshot is immutable).
func (s *Segmenter) EncodingStats() segment.EncodingStats {
	return s.eng.Base().EncodingStats()
}

// info builds the model's view of a segment. Models reason about logical
// sizes, so split decisions are identical with compression on or off.
func (s *Segmenter) info(sg *segment.Segment, elem int64) model.SegmentInfo {
	return model.SegmentInfo{
		Rng:        sg.Rng,
		Bytes:      int64(sg.Bytes(elem)),
		TotalBytes: s.totalBytes.Load(),
	}
}

// storageBytes reports the storage measures from the maintained counters —
// O(1), no list sweep on the query path.
func (s *Segmenter) storageBytes() (int64, int64) { return s.totalBytes.Load(), s.stored.Load() }

// segTask is one unit of per-segment work for a query. The plan fills
// the snapshot segment to scan and the model's verdict on it, in visit
// order (segments high-to-low) under the writer lock; execTask, run
// through FanOut outside it, fills what the scan produced: the task's
// part of the result (one rope chunk, or a total) and, for splits, the
// freshly materialized (and already encoded) replacement pieces — the
// reorganization intent handed to the single-writer path.
type segTask struct {
	seg     *segment.Segment
	covered bool // whole segment qualifies: no filtering, no decision
	action  model.Action
	point   domain.Value // SplitPoint cut

	part
	subs    []*segment.Segment
	recodes int
}

// reads reports whether the task scans its segment's payload for sink k:
// every partially covered segment is scanned, a covered one only by the
// rows sink — the aggregate sinks answer it from the meta-index.
func (t *segTask) reads(k sink) bool { return !t.covered || k == sinkRows }

// Select implements Algorithm 1:
//
//	for all segments S overlapping with query range [QL,QH] do
//	    if segmentation model decides split of S then
//	        scan S and materialize its sub-segments
//	        replace S with its sub-segments
//
// and simultaneously evaluates the selection, returning the qualifying
// values. Segments are visited high-to-low, matching the paper's
// in-place replacement order.
func (s *Segmenter) Select(q domain.Range) ([]domain.Value, QueryStats) {
	r, st := s.SelectRope(q)
	return r.Flatten(), st
}

// SelectRope implements RopeSelector: the same Algorithm-1 pass, with the
// result assembled as a rope of per-segment chunks. Fully covered
// segments whose storage form holds a materialized slice contribute a
// zero-copy borrowed chunk; everything else contributes the freshly
// extracted values as an owned chunk.
func (s *Segmenter) SelectRope(q domain.Range) (*result.Rope, QueryStats) {
	rope, _, st := observed(s.ob.Load(), q, sinkRows, s.run)
	return rope, st
}

// Count implements Strategy: the same Algorithm-1 pass with counting
// sinks. A segment fully covered by the query contributes its meta-index
// count without being scanned at all, and partially covered segments are
// counted on their (possibly compressed) form without copying a value.
func (s *Segmenter) Count(q domain.Range) (int64, QueryStats) {
	_, t, st := observed(s.ob.Load(), q, sinkCount, s.run)
	return t.n, st
}

// Sum implements Strategy: Count's pass with summing sinks — covered
// segments contribute their (count, sum) summary, partially covered ones
// sum on their compressed form.
func (s *Segmenter) Sum(q domain.Range) (int64, int64, QueryStats) {
	_, t, st := observed(s.ob.Load(), q, sinkSum, s.run)
	return t.n, t.sum, st
}

// run is the one reorganize-while-scanning pipeline behind every sink:
//
//  1. Plan (under eng.Mu): pin the (list, delta) pair, walk the
//     snapshot's overlapping segments high-to-low and consult the model
//     for each partially covered one — the only phase that touches
//     stateful model state, microseconds long. eng.Mu is released before
//     the first payload byte is read.
//  2. Scan (no lock): scan, filter or partition each task's segment on
//     the pinned snapshot through FanOut — inline at parallelism 1,
//     across the worker pool otherwise. A split-free plan never takes
//     eng.Mu again: pure reads do not serialize behind each other or
//     behind writers.
//  3. Assemble in task order: account each task's scan (read volume and
//     the tracer's Scan) and append its part. A plan that splits re-takes
//     eng.Mu for this loop and applies each intent right after its Scan,
//     re-validated against the current list by segment identity; intents
//     whose segment a concurrent query already reorganized are dropped —
//     the coalescing step. One querying goroutine therefore sees
//     Algorithm 1's Scan → Materialize(pieces) → Drop order at every
//     parallelism.
//
// The sink decides the per-segment work and whether fully covered
// segments account a scan: the rows sink reads them to copy values out,
// the aggregate sinks answer them from the meta-index for free — so a
// Sum reads exactly what a Count reads.
func (s *Segmenter) run(q domain.Range, k sink, span *obs.Span) (*result.Rope, total, QueryStats) {
	var st QueryStats
	s.eng.lock(s.ob.Load(), span)
	tRoute := span.StartPhase()
	// Pin the MVCC view: the (list snapshot, delta snapshot) pair. Both
	// are taken under the writer lock, and merge-back publishes its
	// rewritten list and drained store while holding it, so the pair is
	// always consistent — a delta entry is visible either through the
	// overlay or through the merged base, never both, never neither.
	// (Lock-free pinners — Pin, the shard router's views — use
	// eng.Pin's epoch protocol instead; the plan phase needs the lock
	// for the stateful model anyway, so pinning under it costs nothing.)
	list := s.eng.Base()
	dsnap := s.eng.Delta.Snapshot()
	elem := list.ElemSize()
	lo, hi := list.Overlapping(q)
	tasks := make([]segTask, 0, hi-lo)
	var scanBytes int64
	splits := false
	for i := hi - 1; i >= lo; i-- {
		sg := list.Seg(i)
		t := segTask{seg: sg}
		// A segment the query covers whole qualifies without a decision;
		// it immediately benefits from earlier reorganization (Figure 3,
		// Q2 on the last segment).
		if t.covered = domain.Classify(sg.Rng, q) == domain.CoversAll; !t.covered {
			d := s.mod.Decide(q, s.info(sg, elem))
			t.action, t.point = d.Action, d.Point
			splits = splits || d.Action != model.NoSplit
		}
		if t.reads(k) {
			scanBytes += int64(sg.StoredBytes(elem))
		}
		tasks = append(tasks, t)
	}
	s.eng.Mu.Unlock()
	codec := s.codec.Load()
	par := int(s.par.Load())
	if par == 0 {
		par = adaptiveFanout(len(tasks), scanBytes)
	}
	span.EndPhase(obs.PhaseRoute, tRoute)

	// Each worker fills only its own tasks, so assembly is
	// scheduling-independent.
	FanOut(len(tasks), par, func(i int) { s.execTask(q, &tasks[i], k, codec) })
	if splits {
		s.eng.lock(s.ob.Load(), span)
	}
	// Each task contributes one rope chunk in task order, so assembly is
	// O(1) per segment.
	rope := result.New()
	var t total
	for i := range tasks {
		task := &tasks[i]
		if task.reads(k) {
			b := int64(task.seg.StoredBytes(elem))
			st.ReadBytes += b
			s.tracer.Scan(task.seg.ID, b)
		}
		if task.subs != nil {
			tAdapt := span.StartPhase()
			s.applyIntent(task, &st)
			span.EndPhase(obs.PhaseAdapt, tAdapt)
		}
		if k == sinkRows {
			task.appendTo(rope)
		}
		t.add(task.total)
	}
	if splits {
		s.eng.Mu.Unlock()
	}
	tOv := span.StartPhase()
	rope = overlayDelta(dsnap, q, k, rope, &t, &st)
	span.EndPhase(obs.PhaseOverlay, tOv)
	s.snapshot(&st)
	return rope, t, st
}

// overlayDelta applies the pinned delta snapshot to an assembled base
// result: visible tombstones mask one base occurrence each, visible
// inserts are unioned in (Figure 1's kdifference/kunion chain, in
// memory) — for the aggregate sinks, their net count and sum are added
// to t. The overlay pass over the pending entries is accounted as read
// volume.
//
// The overlay mutates a flat slice in place, so a non-empty delta forces
// the rope to flatten first — Flatten guarantees a mutable, unshared
// slice (borrowed chunks are copied) — and the result is rewrapped as a
// single owned chunk. The zero-copy rope shape survives exactly when the
// pinned delta is empty, which is the steady state between write bursts.
func overlayDelta(dsnap *delta.Snapshot, q domain.Range, k sink, rope *result.Rope, t *total, st *QueryStats) *result.Rope {
	if dsnap.Len() == 0 {
		return rope
	}
	b := dsnap.OverlayBytes(q)
	st.ReadBytes += b
	st.DeltaReadBytes += b
	if k == sinkRows {
		return result.FromOwned(dsnap.Overlay(q, rope.Flatten()))
	}
	n, sum := dsnap.CountDelta(q)
	t.add(total{n, sum})
	return rope
}

// execTask scans one task's segment on the snapshot and fills the task's
// outcome: extraction, counting or summing for the result, partitioning
// (and encoding) for split intents. It mutates nothing but t and calls no
// Tracer — the assembly loop in run accounts the scan — and extracted
// values land as one rope chunk per task: borrowed when the chunk aliases
// published segment storage (a covered segment's materialized slice, a
// split's mid piece shared with the fresh sub-segment), owned when the
// task allocated it. Every partially overlapping segment is scanned,
// either to extract (or aggregate) the qualifying values or to partition
// it; the meta-index already excluded all non-overlapping segments
// without touching data.
func (s *Segmenter) execTask(q domain.Range, t *segTask, k sink, codec *compress.Codec) {
	if t.covered {
		t.part = collect(t.seg, q, k)
		return
	}
	switch t.action {
	case model.NoSplit:
		t.part = collect(t.seg, q, k)

	case model.SplitBounds:
		sp := domain.Cut(t.seg.Rng, q)
		subs := t.seg.Split(sp.Cuts()...)
		mid := subs[0]
		if !sp.Left.IsEmpty() {
			mid = subs[1]
		}
		// The mid piece is exactly the selection overlap: it is the
		// result contribution whether or not the intent later applies.
		// The slice is shared with the fresh mid sub-segment (a plain
		// encoding aliases it), so the chunk is borrowed; its total is
		// the fresh segment's summary.
		t.vals, t.borrowed = mid.Vals, true
		t.total = total{mid.Count(), mid.Sum()}
		t.subs = subs

	case model.SplitPoint:
		subs := t.seg.Split(t.point)
		// A point split does not isolate the selection: filter the
		// pieces that still overlap the query.
		for _, sub := range subs {
			if !sub.Rng.Overlaps(q) {
				continue
			}
			if k == sinkRows {
				t.vals = sub.AppendSelect(q, t.vals)
			} else {
				t.add(collect(sub, q, k).total)
			}
		}
		t.subs = subs

	default:
		panic(fmt.Sprintf("core: unknown model action %v", t.action))
	}
	for _, sub := range t.subs {
		if sub.Encode(codec) {
			t.recodes++
		}
	}
}

// applyIntent is the single-writer application of one split intent
// (caller holds mu): re-locate the snapshot segment in the current list
// by identity, swap in the materialized pieces copy-on-write, publish the
// new snapshot and account the materialization — the entire reorganized
// segment is written back (§6.1.1: "segmentation reorganizes an entire
// segment independently of the precise selected size"). A stale intent —
// its segment already reorganized by a concurrent query — is dropped:
// that is how identical piggy-backed work from concurrent scans coalesces
// into one application.
func (s *Segmenter) applyIntent(t *segTask, st *QueryStats) {
	list := s.eng.Base()
	i := list.IndexOf(t.seg)
	if i < 0 {
		return
	}
	elem := list.ElemSize()
	next := list.Replaced(i, t.subs...)
	// Register the fresh pages with the tracer before publishing the
	// snapshot, so readers of the new list find them; the old page is
	// dropped after, so readers of the old snapshot race at most into a
	// retired-page scan (which pool tracers account via TouchOrRetired).
	var written int64
	for _, sub := range t.subs {
		b := int64(sub.StoredBytes(elem))
		st.WriteBytes += b
		written += b
		s.tracer.Materialize(sub.ID, b)
	}
	s.eng.Publish(next)
	old := int64(t.seg.StoredBytes(elem))
	s.stored.Add(written - old)
	s.tracer.Drop(t.seg.ID, old)
	st.Splits++
	st.Recodes += t.recodes
	if so := s.ob.Load(); so != nil {
		so.event(so.evSplit, "split", obs.Event{
			Lo:     t.seg.Rng.Lo,
			Hi:     t.seg.Rng.Hi,
			Before: list.Len(),
			After:  next.Len(),
			Bytes:  written,
		})
		so.recodes(t.recodes)
	}
}

// Glue merges the adjacent segment run [i, j] back into one segment — the
// merging counterpart the paper names as the antidote to GD fragmentation
// (§8). It returns the bytes rewritten. Exposed for the merge ablation.
func (s *Segmenter) Glue(i, j int) int64 {
	s.eng.Mu.Lock()
	defer s.eng.Mu.Unlock()
	return s.glueLocked(i, j)
}

// glueLocked performs one copy-on-write glue and publishes the result
// (caller holds mu).
func (s *Segmenter) glueLocked(i, j int) int64 {
	list := s.eng.Base()
	elem := list.ElemSize()
	var rewritten int64
	for k := i; k <= j; k++ {
		sg := list.Seg(k)
		b := int64(sg.StoredBytes(elem))
		rewritten += b
		s.stored.Add(-b)
		s.tracer.Scan(sg.ID, b)
		s.tracer.Drop(sg.ID, b)
	}
	next := list.Glued(i, j)
	merged := next.Seg(i)
	// Encode before publishing: a published segment is immutable.
	merged.Encode(s.codec.Load())
	mb := int64(merged.StoredBytes(elem))
	s.stored.Add(mb)
	s.tracer.Materialize(merged.ID, mb)
	s.eng.Publish(next)
	if so := s.ob.Load(); so != nil {
		so.event(so.evGlue, "glue", obs.Event{
			Lo:     merged.Rng.Lo,
			Hi:     merged.Rng.Hi,
			Before: j - i + 1,
			After:  1,
			Bytes:  rewritten,
		})
	}
	return rewritten
}

// GlueSmall merges every maximal run of adjacent segments smaller than
// minBytes into its successor until no mergeable run remains, returning
// the total bytes rewritten (segmentation always supports gluing, so the
// second result is constantly true). This is the simple merging strategy
// evaluated in the ablation benches. Size comparisons are logical so
// gluing behaves identically with compression on.
func (s *Segmenter) GlueSmall(minBytes int64) (int64, bool) {
	s.eng.Mu.Lock()
	defer s.eng.Mu.Unlock()
	var rewritten int64
	for i := 0; ; {
		list := s.eng.Base()
		if i >= list.Len()-1 {
			break
		}
		elem := list.ElemSize()
		a := int64(list.Seg(i).Bytes(elem))
		b := int64(list.Seg(i + 1).Bytes(elem))
		if a < minBytes || b < minBytes {
			rewritten += s.glueLocked(i, i+1)
			continue // re-examine the merged segment at i
		}
		i++
	}
	return rewritten, true
}

// Layout implements DeltaStrategy: the flat segment list.
func (s *Segmenter) Layout() string { return s.eng.Base().Dump() }

// Validate implements DeltaStrategy: segment adjacency, extent coverage
// and value containment.
func (s *Segmenter) Validate() error { return s.eng.Base().Validate() }
