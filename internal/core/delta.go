package core

// MVCC point writes. The paper's write path is bulk-load shaped (§7);
// this file adds the single-row half on top of the immutable-snapshot
// substrate, and it does so ONCE for both strategies: deltaWriter, which
// the Segmenter and the Replicator embed, is the whole write surface of
// core.DeltaStrategy and the stamped batch. Every write is a batch: a
// single op (Insert/Delete/Update) is a batch of one, and every batch —
// ApplyOps, or ApplyStamped under a cross-shard stamp — runs the one
// body, ApplyStamped. Its ops are screened against the extent, land in
// the per-column write store (internal/delta) under one version, are
// accounted, and may trip the self-organizing merge-back, which drains
// accumulated writes into the base through the strategy's single-writer
// rewrite. A bulk load enters the same rewrite with no tombstones and no
// store to commit. Merged rows then flow through the ordinary
// reorganization loop: later queries split, glue and re-encode them as
// the models dictate. What genuinely differs per strategy is behind
// writeHooks: how to count a value's base rows, how to rewrite the base
// with drained entries, and how to snapshot the storage counters.
//
// Lock order: the delta store's mutex is always taken before the
// strategy's writer lock (Store.Merge holds its mutex across the apply
// callback, which acquires eng.Mu). Queries take no lock at all: they
// pin a consistent (base, delta) pair through the engine's epoch
// protocol, so writers never perturb in-flight scans.

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"selforg/internal/compress"
	"selforg/internal/delta"
	"selforg/internal/domain"
	"selforg/internal/obs"
	"selforg/internal/segment"
)

// writeHooks is what the shared write path needs from the strategy it
// writes into. Both strategies satisfy it with methods of their own.
type writeHooks interface {
	// baseCount reports, free of side effects and without driving
	// adaptation, how many base rows carry v — the existence check behind
	// Delete. Called under the store's mutex.
	baseCount(v domain.Value) int64
	// applyDrained applies the drained entries under the strategy's
	// writer lock and publishes the rewritten base together with the
	// store's commit (engine.applyDrained), so the post-merge base and
	// the drained store appear atomically to lock-free pinners. A bulk
	// load calls it with sorted inserts, no tombstones and a nil commit.
	applyDrained(st *QueryStats, ins, del []domain.Value, commit func()) error
	// storageBytes reports the column's storage measures: logical and
	// physical bytes held (QueryStats.StorageBytes, CompressedBytes).
	storageBytes() (logical, physical int64)
}

// deltaWriter is the write half of a strategy: the MVCC write store, the
// merge-back thresholds and the one body each kind of write runs
// through. Embedded by value in Segmenter and Replicator (never copied
// after init), so its exported methods are the strategies' own.
type deltaWriter struct {
	store *delta.Store // the engine's Delta: queries pin it, writes land here
	// maxBytes / ratioBP are the self-organizing merge-back triggers
	// (pending bytes, pending-to-base ratio in basis points; 0 disables).
	maxBytes, ratioBP atomic.Int64
	extent            domain.Range // the column's domain, fixed at build
	elem              int64        // accounted bytes per value
	baseBytes         *atomic.Int64
	stratOb           *atomic.Pointer[strategyObs]
	hooks             writeHooks
}

// initWriter wires the writer to its strategy: the engine's store, the
// column geometry, the strategy's logical-size counter (the ratio
// trigger's denominator) and observability handle, and the hooks.
func (w *deltaWriter) initWriter(store *delta.Store, extent domain.Range, elem int64,
	baseBytes *atomic.Int64, ob *atomic.Pointer[strategyObs], hooks writeHooks) {
	w.store, w.extent, w.elem = store, extent, elem
	w.baseBytes, w.stratOb, w.hooks = baseBytes, ob, hooks
}

// SetDeltaPolicy implements DeltaStrategy: a write that leaves more than
// maxBytes pending, or more than ratio × the base's logical size, drains
// the write store inline (the writer pays the reorganization cost, just
// as the paper's queries pay for splits). Zero disables the respective
// trigger; both zero leaves merging to explicit MergeDeltas calls.
func (w *deltaWriter) SetDeltaPolicy(maxBytes int64, ratio float64) {
	w.maxBytes.Store(maxBytes)
	w.ratioBP.Store(int64(ratio * 10000))
}

// DeltaStats implements DeltaStrategy.
func (w *deltaWriter) DeltaStats() delta.Stats { return w.store.Stats() }

// ShareDeltaClock rebinds the write store to a column-wide commit clock
// shared with sibling shards.
func (w *deltaWriter) ShareDeltaClock(c *delta.Clock) { w.store.ShareClock(c) }

// Insert implements DeltaStrategy: one row lands in the write store and
// becomes visible to every query pinned afterwards. The write may
// trigger a merge-back; its cost is folded into the returned stats. An
// insert outside the extent is an error.
func (w *deltaWriter) Insert(v domain.Value) (QueryStats, error) {
	ok, st, err := w.one(delta.Op{Kind: delta.OpInsert, V: v})
	if !ok && err == nil {
		return QueryStats{}, fmt.Errorf("core: insert value %d outside extent %v", v, w.extent)
	}
	return st, err
}

// Delete implements DeltaStrategy: removes one occurrence of v (a
// pending insert is cancelled, otherwise a base row is tombstoned). It
// reports false when no visible row carries v; the error reports a
// merge-back failure of a delete that was accepted.
func (w *deltaWriter) Delete(v domain.Value) (bool, QueryStats, error) {
	return w.one(delta.Op{Kind: delta.OpDelete, V: v})
}

// Update implements DeltaStrategy: atomically replaces one occurrence of
// old with new under a single version — every snapshot sees either the
// old row or the new one.
func (w *deltaWriter) Update(old, new domain.Value) (bool, QueryStats, error) {
	return w.one(delta.Op{Kind: delta.OpUpdate, V: old, New: new})
}

// one writes a single op as a batch of one.
func (w *deltaWriter) one(op delta.Op) (bool, QueryStats, error) {
	var res [1]bool
	st, err := w.ApplyStamped(0, []delta.Op{op}, res[:])
	return res[0], st, err
}

// ApplyOps implements DeltaStrategy: the batch under a version the store
// mints.
func (w *deltaWriter) ApplyOps(ops []delta.Op) ([]bool, QueryStats, error) {
	res := make([]bool, len(ops))
	st, err := w.ApplyStamped(0, ops, res)
	return res, st, err
}

// snapshot stamps the column's storage measures onto st.
func (w *deltaWriter) snapshot(st *QueryStats) {
	st.StorageBytes, st.CompressedBytes = w.hooks.storageBytes()
}

// screen is the extent rule, applied to every op exactly once at this
// layer before it may touch the store: an insert outside the extent is
// refused; a delete or update naming a value outside it is refused and
// recorded as a miss, so Stats.DeleteMisses covers every refusal.
func (w *deltaWriter) screen(op delta.Op) bool {
	switch op.Kind {
	case delta.OpInsert:
		return w.extent.Contains(op.V)
	case delta.OpDelete:
		if w.extent.Contains(op.V) {
			return true
		}
	case delta.OpUpdate:
		if w.extent.Contains(op.V) && w.extent.Contains(op.New) {
			return true
		}
	default:
		return false
	}
	w.store.RecordMiss()
	return false
}

// writeBytes is the accounted volume of one accepted op: one entry, two
// for an update (tombstone plus insert).
func (w *deltaWriter) writeBytes(op delta.Op) int64 {
	if op.Kind == delta.OpUpdate {
		return 2 * w.elem
	}
	return w.elem
}

// ApplyStamped is the one write body, behind every single op and every
// group-committed batch: screen, store, write accounting, at most one
// merge-back threshold check, stats stamp, obs. The ops the screen
// passes land in the write store as one batch (delta.Store.Apply): ONE
// version and ONE snapshot publication, and only if an op is accepted.
// ver == 0 lets the store mint the version; a non-zero ver is a
// cross-shard commit stamp from the column-wide clock, so an update's
// two halves in two shards share one version. Per-op acceptance is the
// screen, then in-extent deletes and updates validate against visible
// rows in op order; a refused op is a false entry, not an error. Op i's
// acceptance lands in res[i] (len(res) == len(ops)), so one result slice
// runs from the caller through to the store. The returned error only
// reports a merge-back failure.
func (w *deltaWriter) ApplyStamped(ver int64, ops []delta.Op, res []bool) (QueryStats, error) {
	var st QueryStats
	// An op the screen refuses goes on to the store as an OpSkip, so the
	// store's answer lines up with ops; ops is copied only once the
	// screen refuses one.
	batch, copied := ops, false
	for i, op := range ops {
		if w.screen(op) {
			continue
		}
		if !copied {
			batch, copied = slices.Clone(ops), true
		}
		batch[i].Kind = delta.OpSkip
	}
	w.store.Apply(ver, batch, res, w.hooks.baseCount)
	var n [3]int // accepted ops by kind
	for i, ok := range res {
		if ok {
			st.WriteBytes += w.writeBytes(ops[i])
			n[ops[i].Kind]++
		}
	}
	err := w.maybeMerge(&st)
	w.snapshot(&st)
	w.stratOb.Load().writes(n, &st)
	return st, err
}

// BulkLoad implements DeltaStrategy: a bulk load is the merge-back
// rewrite with no tombstones — one more sorted component merged into the
// base. The batch is screened against the extent before anything is
// touched, sorted, and handed to the strategy's applyDrained with no
// store commit, so the loaded base is published in one atomic step and
// lock-free readers (and pinned Views) see either the pre-load or the
// post-load column. Every touched segment or replica is rewritten
// copy-on-write and re-encoded; the returned stats account those writes.
func (w *deltaWriter) BulkLoad(vals []domain.Value) (QueryStats, error) {
	var st QueryStats
	if len(vals) == 0 {
		return st, nil
	}
	for _, v := range vals {
		if !w.extent.Contains(v) {
			return st, fmt.Errorf("core: bulk value %d outside extent %v", v, w.extent)
		}
	}
	sorted := routedSorted(vals)
	if err := w.hooks.applyDrained(&st, sorted, nil, nil); err != nil {
		return st, err
	}
	w.snapshot(&st)
	if so := w.stratOb.Load(); so != nil {
		so.volumes(&st)
		so.event(so.evBulkload, "bulkload", obs.Event{
			Lo:    sorted[0],
			Hi:    sorted[len(sorted)-1],
			Bytes: st.WriteBytes,
			Note:  fmt.Sprintf("values=%d", len(vals)),
		})
		so.recodes(st.Recodes)
	}
	return st, nil
}

// MergeDeltas implements DeltaStrategy: force-drains the write store
// into the base regardless of the thresholds.
func (w *deltaWriter) MergeDeltas() (QueryStats, error) {
	var st QueryStats
	err := w.merge(&st)
	w.snapshot(&st)
	if so := w.stratOb.Load(); so != nil {
		so.volumes(&st)
	}
	return st, err
}

// maybeMerge drains the write store when a threshold trips. The merge
// accounts into its own stats, which escape into the strategy's rewrite:
// only a write that merges pays their allocation.
func (w *deltaWriter) maybeMerge(st *QueryStats) error {
	if !deltaOverThreshold(w.store.PendingBytes(), w.maxBytes.Load(), w.ratioBP.Load(), w.baseBytes.Load()) {
		return nil
	}
	var mst QueryStats
	err := w.merge(&mst)
	st.Add(mst)
	return err
}

// merge drains the store through the strategy's single-writer rewrite
// path regardless of the thresholds.
func (w *deltaWriter) merge(st *QueryStats) error {
	so := w.stratOb.Load()
	var begin time.Time
	if so != nil {
		begin = time.Now()
	}
	preRecodes := st.Recodes
	n, err := w.store.Merge(func(ins, del []domain.Value, commit func()) error {
		return w.hooks.applyDrained(st, ins, del, commit)
	})
	st.Merged += n
	if err == nil {
		so.merged(n, begin)
		so.recodes(st.Recodes - preRecodes)
	}
	return err
}

// deltaOverThreshold evaluates the merge triggers.
func deltaOverThreshold(pending, maxBytes, ratioBP, baseBytes int64) bool {
	if pending == 0 {
		return false
	}
	if maxBytes > 0 && pending >= maxBytes {
		return true
	}
	return ratioBP > 0 && pending*10000 >= baseBytes*ratioBP
}

// baseCount counts the base rows carrying v on the current snapshot,
// without driving adaptation — the existence check behind Delete. Called
// under the store's mutex; takes no locks itself (the snapshot is
// immutable and merge-back serializes on the same store mutex, so the
// base cannot lose rows mid-validation).
func (s *Segmenter) baseCount(v domain.Value) int64 {
	list := s.eng.Base()
	q := domain.Range{Lo: v, Hi: v}
	lo, hi := list.Overlapping(q)
	var n int64
	for i := lo; i < hi; i++ {
		n += list.Seg(i).SelectCount(q)
	}
	return n
}

// applyDrained implements writeHooks.
func (s *Segmenter) applyDrained(st *QueryStats, ins, del []domain.Value, commit func()) error {
	return s.eng.applyDrained(s.applyDeltaLocked, st, ins, del, commit)
}

// applyDeltaLocked stages the rewrite of every segment touched by the
// drained entries (caller holds eng.Mu): tombstones remove one
// occurrence each, inserts append, and each touched segment is rebuilt
// copy-on-write, re-encoded and accounted — a bulk load is this rewrite
// with no tombstones. The Segmenter's models then reorganize the merged
// rows on later queries. All rewrites are staged and validated before
// anything is accounted, and the caller publishes the returned list, so
// an error leaves the column (and the un-drained store) exactly as they
// were.
func (s *Segmenter) applyDeltaLocked(ins, del []domain.Value) (*segment.List, QueryStats, error) {
	var st QueryStats
	if len(ins) == 0 && len(del) == 0 {
		return nil, st, nil
	}
	list := s.eng.Base()
	elem := list.ElemSize()
	codec := s.codec.Load()
	insB := make(map[int][]domain.Value)
	delB := make(map[int]map[domain.Value]int)
	locate := func(v domain.Value) (int, error) {
		lo, hi := list.Overlapping(domain.Range{Lo: v, Hi: v})
		if lo >= hi {
			return 0, fmt.Errorf("core: no segment covers delta value %d", v)
		}
		return lo, nil
	}
	for _, v := range ins {
		i, err := locate(v)
		if err != nil {
			return nil, st, err
		}
		insB[i] = append(insB[i], v)
	}
	for _, v := range del {
		i, err := locate(v)
		if err != nil {
			return nil, st, err
		}
		if delB[i] == nil {
			delB[i] = make(map[domain.Value]int)
		}
		delB[i][v]++
	}
	// Rewrite touched segments highest index first (replacement
	// stability: indices below the replaced slot never shift).
	idxs := make([]int, 0, len(insB)+len(delB))
	seen := make(map[int]bool)
	for i := range insB {
		idxs = append(idxs, i)
		seen[i] = true
	}
	for i := range delB {
		if !seen[i] {
			idxs = append(idxs, i)
		}
	}
	sortDesc(idxs)
	// Stage: build and validate every replacement before touching any
	// published or accounted state.
	type rewrite struct {
		old, repl          *segment.Segment
		oldBytes, newBytes int64
	}
	rewrites := make([]rewrite, 0, len(idxs))
	var removed int64
	for _, i := range idxs {
		sg := list.Seg(i)
		vals := make([]domain.Value, 0, int(sg.Count())+len(insB[i]))
		vals = sg.AppendValues(vals)
		if dead := delB[i]; dead != nil {
			var rm int64
			vals, rm = delta.RemoveOccurrences(vals, dead)
			removed += rm
			for v, n := range dead {
				if n > 0 {
					return nil, st, fmt.Errorf("core: tombstone for %d has no base row in %v", v, sg.Rng)
				}
			}
		}
		vals = append(vals, insB[i]...)
		repl := segment.NewMaterialized(sg.Rng, vals)
		if repl.Encode(codec) {
			st.Recodes++
		}
		list = list.Replaced(i, repl)
		rewrites = append(rewrites, rewrite{
			old: sg, repl: repl,
			oldBytes: int64(sg.StoredBytes(elem)),
			newBytes: int64(repl.StoredBytes(elem)),
		})
	}
	// Commit the accounting; the caller publishes the list.
	for _, rw := range rewrites {
		st.ReadBytes += rw.oldBytes // the rewrite scans the old segment
		st.WriteBytes += rw.newBytes
		s.stored.Add(rw.newBytes - rw.oldBytes)
		s.tracer.Scan(rw.old.ID, rw.oldBytes)
		s.tracer.Drop(rw.old.ID, rw.oldBytes)
		s.tracer.Materialize(rw.repl.ID, rw.newBytes)
	}
	s.totalBytes.Add((int64(len(ins)) - removed) * elem)
	return list, st, nil
}

// sortDesc sorts ints descending (tiny n; insertion sort keeps the
// merge path allocation-free beyond the slice itself).
func sortDesc(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] > xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// baseCount counts base rows carrying v — the point cover's count on the
// current snapshot, lock-free. Called under the store's mutex; the store
// serializes merges on that same mutex, so the base cannot lose rows
// mid-validation (tree reorganization preserves content).
func (r *Replicator) baseCount(v domain.Value) int64 {
	q := domain.Range{Lo: v, Hi: v}
	var n int64
	for _, c := range getCover(r.eng.Base(), q) {
		n += c.seg.SelectCount(q)
	}
	return n
}

// applyDrained implements writeHooks.
func (r *Replicator) applyDrained(st *QueryStats, ins, del []domain.Value, commit func()) error {
	return r.eng.applyDrained(r.applyDeltaLocked, st, ins, del, commit)
}

// applyDeltaLocked builds the post-merge replica tree (caller holds
// eng.Mu): one batched routing pass partitions every drained insert and
// tombstone down the tree, so each touched replica is rewritten exactly
// once per merge batch no matter how many entries its range covers — a
// tombstone removes one occurrence of its value from every materialized
// replica on the value's path (replicas are copies), an insert is added
// to every materialized replica whose range contains it, and virtual
// estimates adjust by the net count.
// Untouched subtrees are shared with the old tree (path copying). All
// rewrites are staged and validated before anything is accounted, and
// the caller publishes the returned root — an error leaves the tree (and
// the un-drained store) exactly as they were.
func (r *Replicator) applyDeltaLocked(ins, del []domain.Value) (*node, QueryStats, error) {
	var st QueryStats
	if len(ins) == 0 && len(del) == 0 {
		return nil, st, nil
	}
	insS := routedSorted(ins)
	delS := routedSorted(del)
	codec := r.codec.Load()
	type rewrite struct {
		repl     *segment.Segment
		oldBytes int64
		recoded  bool
		net      int64 // logical elements added minus removed
	}
	var rewrites []rewrite
	sentinel := r.eng.Base()

	var rebuild func(n *node, ins, del []domain.Value) (*node, error)
	rebuild = func(n *node, ins, del []domain.Value) (*node, error) {
		if len(ins) == 0 && len(del) == 0 {
			return n, nil // untouched subtree, shared as-is
		}
		seg := n.seg
		if n != sentinel {
			if seg.Virtual {
				est := seg.EstCount + int64(len(ins)) - int64(len(del))
				if est < 0 {
					est = 0
				}
				seg = &segment.Segment{ID: seg.ID, Rng: seg.Rng, Virtual: true, EstCount: est}
			} else {
				var repl *segment.Segment
				var recoded bool
				var removed int64
				// Compression-aware merge-back: an insert-only rewrite of
				// an encoded replica extends the encoded form in place of
				// the decode → append → re-encode round trip, when the
				// encoding supports it and the codec's policy keeps it.
				// The result is identical to re-encoding the decoded
				// values plus the inserts.
				if len(del) == 0 && seg.Enc != nil {
					if enc, ok := compress.ExtendEncoded(seg.Enc, ins); ok && codec.Allows(enc.Encoding()) {
						repl = seg.FilledEncoded(enc)
						recoded = true
					}
				}
				if repl == nil {
					vals := make([]domain.Value, 0, int(seg.Count())+len(ins))
					vals = seg.AppendValues(vals)
					if len(del) > 0 {
						dead := make(map[domain.Value]int, len(del))
						for _, v := range del {
							dead[v]++
						}
						vals, removed = delta.RemoveOccurrences(vals, dead)
						for v, c := range dead {
							if c > 0 {
								return nil, fmt.Errorf("core: tombstone for %d has no row in replica %v", v, seg.Rng)
							}
						}
					}
					vals = append(vals, ins...)
					repl = seg.Filled(vals)
					recoded = repl.Encode(codec)
				}
				rewrites = append(rewrites, rewrite{
					repl:     repl,
					oldBytes: int64(seg.StoredBytes(r.elemSize)),
					recoded:  recoded,
					net:      int64(len(ins)) - removed,
				})
				seg = repl
			}
		}
		kids := n.children
		changed := false
		for i, c := range n.children {
			cIns := rangeSlice(ins, c.seg.Rng)
			cDel := rangeSlice(del, c.seg.Rng)
			nc, err := rebuild(c, cIns, cDel)
			if err != nil {
				return nil, err
			}
			if nc != c {
				if !changed {
					kids = append([]*node(nil), n.children...)
					changed = true
				}
				kids[i] = nc
			}
		}
		if seg == n.seg && !changed {
			return n, nil
		}
		return &node{seg: seg, children: kids}, nil
	}
	next, err := rebuild(sentinel, insS, delS)
	if err != nil {
		return nil, st, err
	}
	// Commit the accounting; the caller publishes the root.
	for _, rw := range rewrites {
		newBytes := int64(rw.repl.StoredBytes(r.elemSize))
		st.ReadBytes += rw.oldBytes // the rewrite scans the old replica
		st.WriteBytes += newBytes
		if rw.recoded {
			st.Recodes++
		}
		r.stored.Add(newBytes - rw.oldBytes)
		r.storage.Add(rw.net * r.elemSize)
		r.tracer.Scan(rw.repl.ID, rw.oldBytes)
		r.tracer.Drop(rw.repl.ID, rw.oldBytes)
		r.tracer.Materialize(rw.repl.ID, newBytes)
	}
	r.totalBytes.Add((int64(len(ins)) - int64(len(del))) * r.elemSize)
	return next, st, nil
}

// routedSorted returns a sorted copy (the replica routing pass
// partitions by binary search; a bulk load is applied sorted).
func routedSorted(vs []domain.Value) []domain.Value {
	out := append([]domain.Value(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rangeSlice returns the subslice of sorted vals falling inside rng.
func rangeSlice(vals []domain.Value, rng domain.Range) []domain.Value {
	lo := sort.Search(len(vals), func(i int) bool { return vals[i] >= rng.Lo })
	hi := sort.Search(len(vals), func(i int) bool { return vals[i] > rng.Hi })
	return vals[lo:hi]
}
