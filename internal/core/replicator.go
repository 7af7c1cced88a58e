package core

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"selforg/internal/compress"
	"selforg/internal/domain"
	"selforg/internal/model"
	"selforg/internal/obs"
	"selforg/internal/result"
	"selforg/internal/segment"
)

// Replicator implements adaptive replication (§5): segments are organized
// in a replica tree of materialized and virtual segments; query results are
// retained as materialized replicas ("lazy materialization", §3.3), and a
// segment whose children are all materialized is dropped to release
// storage (Algorithm 5).
//
// # Concurrency model
//
// The replica tree is persistent: nodes are immutable after publication
// and every mutation — replica creation, materialization, re-encoding,
// drops, bulk loads, delta merge-backs — path-copies from the touched
// node up to the sentinel and publishes the new root through the shared
// snapshot-publication engine. A query therefore takes **no lock at
// all** on its read path: it pins a consistent (root, delta) pair
// lock-free, computes its cover and scans it on the pinned snapshot, and
// overlays the pinned delta — concurrent scanners never serialize, no
// matter how much reorganization runs beside them.
//
// The adaptation half of the paper's algorithms (model decisions, replica
// materialization, drops) runs on the single-writer pipeline, applied by
// the query that finds it: when the query's cover holds adaptation work
// (a virtual leaf to materialize, a partially covered leaf the model may
// split), the query takes the writer mutex after its scan, recomputes
// the cover on the current root and applies Algorithm 2's analyse →
// materialize → drop pass before it returns — the Segmenter's rule. A
// converged cover has no such work, so its queries never touch the
// mutex. Each query's Stats and Tracer events are therefore its own.
//
// With SetParallelism(n > 1) the result extraction of one query fans out
// across the (disjoint) covering segments through FanOut, with the parts
// merged in cover order. Scan workers never call the Tracer: the querying
// goroutine books every Scan in cover order while it assembles the
// result. Several goroutines querying the column call the Tracer
// concurrently (scan events are not serialized by a query lock).
type Replicator struct {
	// eng owns the published (root, delta) pair, the writer mutex and
	// the merge-back protocol, shared with the Segmenter.
	eng engine[node]
	// deltaWriter is the MVCC point-write surface (delta.go), shared with
	// the Segmenter.
	deltaWriter
	// mod is the stateful segmentation model (GD owns a random stream,
	// AutoAPM tunes its bounds); consulted only under eng.Mu.
	mod      model.Model
	tracer   Tracer
	elemSize int64
	codec    atomic.Pointer[compress.Codec] // nil = compression off
	// totalBytes is the original logical column size — GD's TotSize.
	totalBytes atomic.Int64
	// storage tracks logical materialized bytes currently held
	// (Figures 8, 9); stored tracks the physical (compressed) footprint.
	// The two are equal with compression off. Atomics so lock-free
	// readers can fill their stats snapshot.
	storage atomic.Int64
	stored  atomic.Int64
	// budget bounds storage (0 = unlimited): the §8 extension "optimal
	// replica configuration in the presence of storage limitations". New
	// replicas whose estimated size would exceed the budget are declined;
	// queries stay correct, served from the covering ancestors. Written
	// and read under eng.Mu.
	budget int64
	// maxDepth bounds the replica tree depth (0 = unlimited), the other
	// §6.1.3/§8 open knob. At the limit, leaves are no longer split;
	// virtual leaves may still materialize whole (which adds no depth).
	// Written and read under eng.Mu.
	maxDepth int
	// declined counts replicas refused by the budget or depth guards.
	declined atomic.Int64
	// par is the per-query extraction fan-out width (0 = adaptive,
	// 1 = serial, n > 1 = bounded at n).
	par atomic.Int32
	// ob is the resolved observability handle set (nil = uninstrumented;
	// the query path pays one atomic load either way).
	ob atomic.Pointer[strategyObs]
}

// NewReplicator builds the strategy over a fresh one-segment column (the
// replica-tree root) covering extent and holding vals. tracer may be nil.
func NewReplicator(extent domain.Range, vals []domain.Value, elemSize int64, m model.Model, tracer Tracer) *Replicator {
	if elemSize < 1 {
		panic("core: elemSize must be positive")
	}
	if tracer == nil {
		tracer = nopTracer{}
	}
	root := &node{seg: segment.NewMaterialized(extent, vals)}
	// sentinel is a permanent virtual holder of the forest. The paper's
	// tree root (the whole column) can itself be dropped once fully
	// replicated ("the initial segment containing the entire column was
	// fully replicated by its materialized children and dropped", §6.1.3);
	// the sentinel keeps the remaining forest addressable and is exempt
	// from dropping.
	sentinel := &node{seg: segment.NewVirtual(extent, int64(len(vals))), children: []*node{root}}
	r := &Replicator{
		mod:      m,
		tracer:   tracer,
		elemSize: elemSize,
	}
	r.eng.initEngine(sentinel, elemSize)
	r.initWriter(r.eng.Delta, extent, elemSize, &r.totalBytes, &r.ob, r)
	bytes := int64(len(vals)) * elemSize
	r.totalBytes.Store(bytes)
	r.storage.Store(bytes)
	r.stored.Store(bytes)
	r.tracer.Materialize(root.seg.ID, bytes)
	return r
}

// Name implements Strategy.
func (r *Replicator) Name() string { return r.mod.Name() + " Repl" }

// SetParallelism sets the bounded worker count one query may fan its
// covering-segment extraction out to. 0 (the default) picks the fan-out
// per query from the cover's segment count and scan volume; 1 forces
// serial; n > 1 bounds the fan-out at n.
func (r *Replicator) SetParallelism(n int) {
	if n < 0 {
		n = 1
	}
	r.par.Store(int32(n))
}

// SetObserver attaches (or, with a nil observer, detaches) the
// observability layer; see Segmenter.SetObserver. The replication
// surface adds the declined-replica gauge.
// All gauge callbacks are lock-free (atomics and immutable snapshots),
// so a scrape never orders against the writer pipeline.
func (r *Replicator) SetObserver(ob *obs.Observer, shardIdx int) {
	if ob == nil {
		r.ob.Store(nil)
		return
	}
	so := newStrategyObs(ob, "repl", shardIdx)
	r.ob.Store(so)
	r.eng.setPublishCounter(ob.Registry.Counter(so.seriesName("selforg_publications_total")))
	reg := ob.Registry
	reg.GaugeFunc(so.seriesName("selforg_delta_pending_bytes"), r.eng.Delta.PendingBytes)
	reg.GaugeFunc(so.seriesName("selforg_storage_bytes"), r.stored.Load)
	reg.GaugeFunc(so.seriesName("selforg_storage_uncompressed_bytes"), r.storage.Load)
	reg.GaugeFunc(so.seriesName("selforg_segments"), func() int64 {
		return int64(r.SegmentCount())
	})
	reg.GaugeFunc(so.seriesName("selforg_replicas_declined"), r.declined.Load)
}

// SetCompression attaches the compression subsystem: new replicas are
// encoded as they materialize, and the existing materialized tree is
// re-encoded copy-on-write and republished, so concurrent readers keep
// their consistent snapshot.
func (r *Replicator) SetCompression(mode compress.Mode) {
	r.eng.Mu.Lock()
	defer r.eng.Mu.Unlock()
	codec := compress.NewCodec(mode, r.elemSize)
	r.codec.Store(codec)
	if !codec.Enabled() {
		return
	}
	var delta int64
	var encode func(n *node) *node
	encode = func(n *node) *node {
		kids := n.children
		changed := false
		for i, c := range n.children {
			if nc := encode(c); nc != c {
				if !changed {
					kids = append([]*node(nil), n.children...)
					changed = true
				}
				kids[i] = nc
			}
		}
		seg := n.seg
		if !seg.Virtual && seg.Enc == nil {
			before := int64(seg.StoredBytes(r.elemSize))
			cp := seg.EncodedCopy(codec)
			if cp.Enc != nil {
				delta += int64(cp.StoredBytes(r.elemSize)) - before
				seg = cp
			}
		}
		if seg == n.seg && !changed {
			return n
		}
		return &node{seg: seg, children: kids}
	}
	sentinel := r.eng.Base()
	next := encode(sentinel)
	if next != sentinel {
		r.eng.Publish(next)
		r.stored.Add(delta)
	}
}

// Compression returns the active compression mode.
func (r *Replicator) Compression() compress.Mode { return r.codec.Load().Mode() }

// SetStorageBudget bounds the materialized replica storage in bytes
// (0 = unlimited). Replicas that would exceed the budget are declined.
func (r *Replicator) SetStorageBudget(maxBytes int64) {
	r.eng.Mu.Lock()
	defer r.eng.Mu.Unlock()
	r.budget = maxBytes
}

// SetMaxDepth bounds the replica tree depth (0 = unlimited).
func (r *Replicator) SetMaxDepth(depth int) {
	r.eng.Mu.Lock()
	defer r.eng.Mu.Unlock()
	r.maxDepth = depth
}

// Declined returns how many replica creations the budget/depth guards
// refused.
func (r *Replicator) Declined() int { return int(r.declined.Load()) }

// StorageBytes implements Strategy: the total physical materialized
// replica storage, the y-axis of Figures 8 and 9 (compressed footprint
// where replicas are encoded).
func (r *Replicator) StorageBytes() domain.ByteSize { return domain.ByteSize(r.stored.Load()) }

// UncompressedBytes implements Strategy: the logical replica storage.
func (r *Replicator) UncompressedBytes() domain.ByteSize {
	return domain.ByteSize(r.storage.Load())
}

// SegmentCount implements Strategy: the number of materialized segments.
// Lock-free: the walk runs on the current immutable snapshot.
func (r *Replicator) SegmentCount() int {
	sentinel := r.eng.Base()
	n := 0
	sentinel.walk(func(m *node, _ int) {
		if m != sentinel && !m.seg.Virtual {
			n++
		}
	})
	return n
}

// VirtualCount returns the number of virtual segments in the tree.
func (r *Replicator) VirtualCount() int {
	sentinel := r.eng.Base()
	n := 0
	sentinel.walk(func(m *node, _ int) {
		if m != sentinel && m.seg.Virtual {
			n++
		}
	})
	return n
}

// Depth returns the maximum depth of the replica tree (sentinel at 0).
// §6.1.3 evaluates tree depth as a replication cost parameter.
func (r *Replicator) Depth() int {
	max := 0
	r.eng.Base().walk(func(_ *node, d int) {
		if d > max {
			max = d
		}
	})
	return max
}

// EncodingStats implements DeltaStrategy: the per-encoding storage
// breakdown of the materialized replicas.
func (r *Replicator) EncodingStats() segment.EncodingStats {
	sentinel := r.eng.Base()
	var es segment.EncodingStats
	sentinel.walk(func(m *node, _ int) {
		if m != sentinel {
			es.Observe(m.seg, r.elemSize)
		}
	})
	return es
}

// SegmentSizes implements Strategy: logical sizes of materialized
// segments.
func (r *Replicator) SegmentSizes() []float64 {
	sentinel := r.eng.Base()
	var out []float64
	sentinel.walk(func(m *node, _ int) {
		if m != sentinel && !m.seg.Virtual {
			out = append(out, float64(m.seg.Count()*r.elemSize))
		}
	})
	return out
}

// Dump renders the replica tree in Figure-4 style (virtual segments marked
// "vir").
func (r *Replicator) Dump() string {
	var b strings.Builder
	for _, c := range r.eng.Base().children {
		c.dump(&b, 0)
	}
	return b.String()
}

// Validate checks the tree invariants; tests run it after every query.
func (r *Replicator) Validate() error {
	return r.eng.Base().validate(false)
}

// Layout implements DeltaStrategy: the replica tree rendering.
func (r *Replicator) Layout() string { return r.Dump() }

// TreeDepth implements TreeShaped.
func (r *Replicator) TreeDepth() int { return r.Depth() }

// GlueSmall implements DeltaStrategy: replica trees do not glue (drops,
// not merges, shrink them), so the capability is reported absent.
func (r *Replicator) GlueSmall(int64) (int64, bool) { return 0, false }

// info builds the model's view of a segment (estimated size for virtual
// segments).
func (r *Replicator) info(sg *segment.Segment) model.SegmentInfo {
	return model.SegmentInfo{
		Rng:        sg.Rng,
		Bytes:      sg.Count() * r.elemSize,
		TotalBytes: r.totalBytes.Load(),
	}
}

// Select implements Algorithm 2 (AdaptReplication):
//
//	cv ← getCover(ql, qh, root)
//	for all s ∈ cv do
//	    M ← analyseRepl(ql, qh, s)
//	    scanMat(s, M)
//	    check4Drop(s)
//
// It returns the selection result assembled from one scan per covering
// segment, with replica materialization piggy-backed on the query (the
// scan itself is lock-free; the query applies its materialization under
// the writer mutex before it returns).
func (r *Replicator) Select(q domain.Range) ([]domain.Value, QueryStats) {
	res, st := r.SelectRope(q)
	return res.Flatten(), st
}

// SelectRope implements RopeSelector: the same Algorithm-2 pass with the
// result assembled as a rope of per-cover chunks. A covering segment the
// query fully covers contributes its materialized slice as a zero-copy
// borrowed chunk (the payload invariant guarantees every value
// qualifies); partially covered segments contribute their extracted
// values as owned chunks.
func (r *Replicator) SelectRope(q domain.Range) (*result.Rope, QueryStats) {
	rope, _, st := observed(r.ob.Load(), q, sinkRows, r.run)
	return rope, st
}

// Count implements Strategy: the Algorithm-2 pass with the result
// assembly replaced by counting on the covering segments' (possibly
// compressed) form. Replica analysis, materialization and drops all still
// happen — counting queries drive adaptation like any others.
func (r *Replicator) Count(q domain.Range) (int64, QueryStats) {
	_, t, st := observed(r.ob.Load(), q, sinkCount, r.run)
	return t.n, st
}

// Sum implements Strategy: Count's pass with summing sinks — a cover
// segment the query spans whole contributes its (count, sum) summary.
func (r *Replicator) Sum(q domain.Range) (int64, int64, QueryStats) {
	_, t, st := observed(r.ob.Load(), q, sinkSum, r.run)
	return t.n, t.sum, st
}

// run is the shared Algorithm-2 pass behind every sink:
//
//  1. READ (lock-free): pin a consistent (root, delta) pair, compute the
//     cover on the pinned root, scan the covering segments — serially or
//     fanned out across the worker pool — and overlay the pinned delta.
//  2. ADAPT (under eng.Mu): if the cover shows adaptation opportunities
//     (a virtual leaf to materialize, a partially covered leaf the model
//     may split), take the writer mutex through eng.lock and apply the
//     query's own Algorithm-2 pass (adaptLocked), which recomputes the
//     cover on the current root. A converged cover skips this step and
//     never touches the mutex.
//
// The model sees the query's leaves in cover order, so the analyse →
// scan → materialize → drop sequence of the paper's pseudocode holds for
// every query, and serial runs evolve stats and layout exactly as the
// pseudocode does. Every sink accounts the
// "single scan of the covering segment" (§5) for every cover node, so a
// Sum reads exactly what a Count reads.
func (r *Replicator) run(q domain.Range, k sink, span *obs.Span) (*result.Rope, total, QueryStats) {
	var st QueryStats
	tRoute := span.StartPhase()
	root, dsnap := r.eng.Pin()
	cover := getCover(root, q)
	span.EndPhase(obs.PhaseRoute, tRoute)

	par := int(r.par.Load())
	if par == 0 {
		var coverBytes int64
		for _, c := range cover {
			coverBytes += int64(c.seg.StoredBytes(r.elemSize))
		}
		par = adaptiveFanout(len(cover), coverBytes)
	}

	// The per-cover work is read-only on disjoint segments: parts land in
	// cover-order slots. The "single scan of the covering segment" (§5) —
	// read volume and the tracer's Scan — is booked in cover order by the
	// assembly loop, on the querying goroutine.
	parts := make([]part, len(cover))
	FanOut(len(cover), par, func(i int) {
		parts[i] = collect(cover[i].seg, q, k)
	})
	rope := result.New()
	var t total
	for i, c := range cover {
		b := int64(c.seg.StoredBytes(r.elemSize))
		st.ReadBytes += b
		r.tracer.Scan(c.seg.ID, b)
		if k == sinkRows {
			parts[i].appendTo(rope)
		}
		t.add(parts[i].total)
	}
	tOv := span.StartPhase()
	rope = overlayDelta(dsnap, q, k, rope, &t, &st)
	span.EndPhase(obs.PhaseOverlay, tOv)

	if coverNeedsAdaptation(cover, q) {
		r.eng.lock(r.ob.Load(), span)
		tAdapt := span.StartPhase()
		r.adaptLocked(q, &st)
		span.EndPhase(obs.PhaseAdapt, tAdapt)
		r.eng.Mu.Unlock()
	}
	r.snapshot(&st)
	return rope, t, st
}

// coverNeedsAdaptation reports, without consulting the model, whether
// the Algorithm-4 pass over this cover could possibly do anything: a
// virtual leaf overlapping q can materialize, and a materialized leaf
// only partially covered (with a splittable range) may be split. When it
// returns false, every model in the system is guaranteed to answer
// NoSplit for every overlapping leaf (a covering query is never
// splittable) without consuming any model state, so skipping the writer
// mutex is observationally identical to taking it — this is what makes
// the scan path on a converged tree completely lock-free.
func coverNeedsAdaptation(cover []*node, q domain.Range) bool {
	for _, c := range cover {
		if leafNeedsAdaptation(c, q) {
			return true
		}
	}
	return false
}

func leafNeedsAdaptation(n *node, q domain.Range) bool {
	if !n.isLeaf() {
		for _, c := range n.overlapChildren(q) {
			if leafNeedsAdaptation(c, q) {
				return true
			}
		}
		return false
	}
	if n.seg.Virtual {
		return true // materialization opportunity (split or whole)
	}
	// A materialized leaf is a split candidate only if the query covers
	// it partially and the range is wide enough to cut — exactly the
	// models' shared splittable() precondition.
	return n.seg.Rng.Width() >= 2 && domain.Classify(n.seg.Rng, q) != domain.CoversAll
}

// adaptLocked is the writer half of Algorithm 2 for one query range
// (caller holds eng.Mu): recompute the cover on the *current* root (a
// concurrent query may have reorganized since this one pinned its
// snapshot — recomputing is the revalidation/coalescing step), run
// analyseRepl + scanMat's materialization + check4Drop per cover node as a path-copying
// rebuild, and publish the new root. Skips covers with nothing to do, so
// racing identical queries coalesce into one application.
func (r *Replicator) adaptLocked(q domain.Range, st *QueryStats) {
	root := r.eng.Base()
	for _, c := range getCover(root, q) {
		// c is reachable from the latest root even after earlier covers
		// were rebuilt: covers are disjoint subtrees, and path copying
		// shares every untouched node.
		cur := r.eng.Base()
		depth := 0 // read only by the MaxDepth guard
		if r.maxDepth > 0 {
			depth = depthOf(root, c)
		}
		rebuilt := r.analyzeBuild(c, c, depth, q, st)
		repl := r.dropPass(rebuilt, st)
		if len(repl) == 1 && repl[0] == c {
			continue
		}
		next, ok := rebuildAt(cur, c, repl)
		if !ok {
			panic(fmt.Sprintf("core: cover %v not reachable from root", c.seg))
		}
		r.eng.Publish(next)
	}
}

// depthOf returns target's depth below root, descending by range as
// rebuildAt does: children tile their parent in ascending order, so the
// first child ending at or above target's low bound contains it. A
// target not under root runs off a leaf and panics.
func depthOf(root, target *node) int {
	depth := 0
	for n := root; n != target; depth++ {
		kids := n.children
		n = kids[sort.Search(len(kids), func(i int) bool { return kids[i].seg.Rng.Hi >= target.seg.Rng.Lo })]
	}
	return depth
}

// analyzeBuild implements Algorithm 4 (analyseRepl) fused with the
// materialization half of scanMat as a persistent-tree transform:
// descend from cover c to the leaves overlapping q, consult the model per
// leaf, and return the rebuilt subtree — split leaves gain (virtual)
// children with the selection overlap materialized, virtual leaves the
// model declines to split materialize whole. Nodes with nothing to do are
// returned unchanged (shared). Caller holds eng.Mu.
func (r *Replicator) analyzeBuild(c, n *node, depth int, q domain.Range, st *QueryStats) *node {
	if !n.isLeaf() {
		kids := n.children
		changed := false
		lo, hi := n.overlapWindow(q)
		for i := lo; i < hi; i++ {
			ch := n.children[i]
			if nc := r.analyzeBuild(c, ch, depth+1, q, st); nc != ch {
				if !changed {
					kids = append([]*node(nil), n.children...)
					changed = true
				}
				kids[i] = nc
			}
		}
		if !changed {
			return n
		}
		return n.withChildren(kids)
	}
	d := r.mod.Decide(q, r.info(n.seg))
	if r.maxDepth > 0 && depth >= r.maxDepth && d.Action != model.NoSplit {
		// Depth guard: no further splitting at the limit; a virtual leaf
		// may still materialize whole via the NoSplit path below.
		r.declined.Add(1)
		d = model.Decision{Action: model.NoSplit}
	}
	switch d.Action {
	case model.NoSplit:
		// Case 0: "query entirely covers s or small subsegments in small
		// s" — if s is virtual it is materialized without split.
		if n.seg.Virtual {
			if filled := r.materialize(c, n.seg, st); filled != nil {
				return &node{seg: filled}
			}
		}
		return n

	case model.SplitBounds:
		// Cases 1–3: materialize the selection overlap, complement with
		// virtual segments whose sizes are estimated.
		sp := domain.Cut(n.seg.Rng, q)
		kids := make([]*node, 0, 3)
		if !sp.Left.IsEmpty() {
			kids = append(kids, r.newVirtualNode(n.seg, sp.Left))
		}
		m := r.newVirtualNode(n.seg, sp.Overlap)
		kids = append(kids, m)
		if !sp.Right.IsEmpty() {
			kids = append(kids, r.newVirtualNode(n.seg, sp.Right))
		}
		if filled := r.materialize(c, m.seg, st); filled != nil {
			kids[indexOf(kids, m)] = &node{seg: filled}
		}
		st.Splits++
		r.splitEvent(n, kids)
		return n.withChildren(kids)

	case model.SplitPoint:
		// Case 4: "some subsegment is small but s is large" — split on one
		// query border (or the mean), materializing the smallest super-set
		// of the selection.
		lo := domain.Range{Lo: n.seg.Rng.Lo, Hi: d.Point}
		hi := domain.Range{Lo: d.Point + 1, Hi: n.seg.Rng.Hi}
		l := r.newVirtualNode(n.seg, lo)
		h := r.newVirtualNode(n.seg, hi)
		target := h
		if d.MatLeft {
			target = l
		}
		kids := []*node{l, h}
		if filled := r.materialize(c, target.seg, st); filled != nil {
			kids[indexOf(kids, target)] = &node{seg: filled}
		}
		st.Splits++
		r.splitEvent(n, kids)
		return n.withChildren(kids)

	default:
		panic(fmt.Sprintf("core: unknown model action %v", d.Action))
	}
}

// splitEvent files a replica-tree split: leaf n gained the kids tiling.
func (r *Replicator) splitEvent(n *node, kids []*node) {
	so := r.ob.Load()
	if so == nil {
		return
	}
	so.event(so.evSplit, "split", obs.Event{
		Lo:     n.seg.Rng.Lo,
		Hi:     n.seg.Rng.Hi,
		Before: 1,
		After:  len(kids),
	})
}

func indexOf(kids []*node, n *node) int {
	for i, k := range kids {
		if k == n {
			return i
		}
	}
	panic("core: node not among its siblings")
}

// materialize fills one replica scheduled by analyzeBuild — the
// materialization half of the paper's scanMat: extract the replica's
// range from the covering segment c, encode it, account the write. It
// returns nil when the storage budget declines the replica (the segment
// stays virtual and later queries keep using the covering ancestor).
// Caller holds eng.Mu.
func (r *Replicator) materialize(c *node, virt *segment.Segment, st *QueryStats) *segment.Segment {
	if r.budget > 0 && r.stored.Load()+virt.Count()*r.elemSize > r.budget {
		// Storage guard (§8 extension): the guard uses the logical size
		// estimate (the encoded size is unknown before the scan), so it
		// only errs towards declining.
		r.declined.Add(1)
		return nil
	}
	codec := r.codec.Load()
	// Compression-aware bulk load: when the covering segment is already
	// encoded and its encoding survives a range splice (RLE run headers,
	// plain slices), the replica is cut straight from the encoded form —
	// no decode, no re-encode. The splice result is value- and
	// size-identical to the decoded path re-encoded under the same
	// encoding; the codec's policy gate keeps forced modes honest. It
	// still counts as a recode: a fresh encoded replica was produced.
	if codec.Enabled() && c.seg.Enc != nil {
		if enc, ok := compress.SpliceRange(c.seg.Enc, virt.Rng.Lo, virt.Rng.Hi); ok && codec.Allows(enc.Encoding()) {
			filled := virt.FilledEncoded(enc)
			st.Recodes++
			b := int64(filled.StoredBytes(r.elemSize))
			st.WriteBytes += b
			r.storage.Add(filled.Count() * r.elemSize)
			r.stored.Add(b)
			r.tracer.Materialize(filled.ID, b)
			if so := r.ob.Load(); so != nil {
				so.event(so.evReplicate, "replicate", obs.Event{
					Lo:    filled.Rng.Lo,
					Hi:    filled.Rng.Hi,
					After: 1,
					Bytes: b,
				})
				so.recodes(1)
			}
			return filled
		}
	}
	vals := c.seg.Select(virt.Rng)
	filled := virt.Filled(vals)
	logical := int64(len(vals)) * r.elemSize
	recoded := filled.Encode(codec)
	if recoded {
		st.Recodes++
	}
	b := int64(filled.StoredBytes(r.elemSize))
	st.WriteBytes += b
	r.storage.Add(logical)
	r.stored.Add(b)
	r.tracer.Materialize(filled.ID, b)
	if so := r.ob.Load(); so != nil {
		so.event(so.evReplicate, "replicate", obs.Event{
			Lo:    filled.Rng.Lo,
			Hi:    filled.Rng.Hi,
			After: 1,
			Bytes: b,
		})
		if recoded {
			so.recodes(1)
		}
	}
	return filled
}

// dropPass implements Algorithm 5 (check4Drop) as a persistent-tree
// transform: bottom-up over the subtree, a segment whose immediate
// children are all materialized is dropped — its children hoist into its
// parent's tiling — and dropping a materialized segment releases its
// storage. The returned slice replaces n in its parent (length 1 and
// identical pointer = nothing changed). Caller holds eng.Mu.
func (r *Replicator) dropPass(n *node, st *QueryStats) []*node {
	if n.isLeaf() {
		return []*node{n}
	}
	kids := make([]*node, 0, len(n.children))
	changed := false
	for _, c := range n.children {
		rep := r.dropPass(c, st)
		if len(rep) != 1 || rep[0] != c {
			changed = true
		}
		kids = append(kids, rep...)
	}
	cur := n
	if changed {
		cur = n.withChildren(kids)
	}
	for _, k := range kids {
		if k.seg.Virtual {
			return []*node{cur} // children do not replicate cur
		}
	}
	if !cur.seg.Virtual {
		logical := cur.seg.Count() * r.elemSize
		physical := int64(cur.seg.StoredBytes(r.elemSize))
		r.storage.Add(-logical)
		r.stored.Add(-physical)
		r.tracer.Drop(cur.seg.ID, physical)
		st.Drops++
		if so := r.ob.Load(); so != nil {
			so.event(so.evDrop, "drop", obs.Event{
				Lo:     cur.seg.Rng.Lo,
				Hi:     cur.seg.Rng.Hi,
				Before: 1,
				After:  len(kids),
				Bytes:  physical,
			})
		}
	}
	return kids
}

// rebuildAt path-copies from root down to target, splicing repl into
// target's parent's tiling in target's place. Descent is by range (the
// unique child containing target's range), confirmation by identity —
// persistent sharing keeps target reachable from every root published
// since it was, unless a concurrent rewrite replaced it.
func rebuildAt(root, target *node, repl []*node) (*node, bool) {
	if root == target {
		panic("core: cannot replace the sentinel")
	}
	for i, c := range root.children {
		if !c.seg.Rng.Contains(target.seg.Rng.Lo) {
			continue
		}
		if c == target {
			kids := make([]*node, 0, len(root.children)+len(repl)-1)
			kids = append(kids, root.children[:i]...)
			kids = append(kids, repl...)
			kids = append(kids, root.children[i+1:]...)
			return root.withChildren(kids), true
		}
		sub, ok := rebuildAt(c, target, repl)
		if !ok {
			return nil, false
		}
		kids := append([]*node(nil), root.children...)
		kids[i] = sub
		return root.withChildren(kids), true
	}
	return nil, false
}

// storageBytes reports the storage measures — atomic loads, no lock.
func (r *Replicator) storageBytes() (int64, int64) { return r.storage.Load(), r.stored.Load() }

// newVirtualNode creates a virtual child segment of parent covering rng,
// with its size estimated from the parent's (possibly itself estimated)
// density — "its size is estimated, but no data is copied" (§5).
func (r *Replicator) newVirtualNode(parent *segment.Segment, rng domain.Range) *node {
	return &node{seg: segment.NewVirtual(rng, parent.EstimatePiece(rng))}
}
