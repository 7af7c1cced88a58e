package core

// MVCC point writes. The paper's write path is bulk-load shaped (§7);
// this file adds the single-row half on top of the immutable-snapshot
// substrate: Insert/Update/Delete land in a per-column write store
// (internal/delta), queries overlay the store's pinned snapshot onto
// their base scans, and a self-organizing merge-back — triggered by
// delta-size and delta-to-base-ratio thresholds — drains accumulated
// writes into the base through the same single-writer rewrite pipeline
// bulk loads use. Merged rows then flow through the ordinary
// reorganization loop: later queries split, glue and re-encode them as
// the models dictate.
//
// Lock order: the delta store's mutex is always taken before the
// strategy's writer lock (Store.Merge holds its mutex across the apply
// callback, which acquires eng.Mu). Queries take no lock at all: they
// pin a consistent (base, delta) pair through the engine's epoch
// protocol, so writers never perturb in-flight scans.

import (
	"fmt"
	"sort"
	"time"

	"selforg/internal/compress"
	"selforg/internal/delta"
	"selforg/internal/domain"
	"selforg/internal/segment"
)

// SetDeltaPolicy implements DeltaStrategy: a write that leaves more than
// maxBytes pending, or more than ratio × the base's logical size, drains
// the write store inline (the writer pays the reorganization cost, just
// as the paper's queries pay for splits). Zero disables the respective
// trigger; both zero leaves merging to explicit MergeDeltas calls.
func (s *Segmenter) SetDeltaPolicy(maxBytes int64, ratio float64) {
	s.eng.SetDeltaPolicy(maxBytes, ratio)
}

// DeltaStats implements DeltaStrategy.
func (s *Segmenter) DeltaStats() delta.Stats { return s.eng.DeltaStats() }

// Insert implements DeltaStrategy: one row lands in the write store and
// becomes visible to every query pinned afterwards. The write may
// trigger a merge-back; its cost is folded into the returned stats.
func (s *Segmenter) Insert(v domain.Value) (QueryStats, error) {
	var st QueryStats
	list := s.eng.Base()
	if !list.Extent().Contains(v) {
		return st, fmt.Errorf("core: insert value %d outside extent %v", v, list.Extent())
	}
	s.eng.Delta.Insert(v)
	st.WriteBytes += list.ElemSize()
	err := maybeMergeDeltas(s, &st)
	s.snapshot(&st)
	if so := s.ob.Load(); so != nil {
		so.write(so.wIns, &st)
	}
	return st, err
}

// Delete implements DeltaStrategy: removes one occurrence of v (a
// pending insert is cancelled, otherwise a base row is tombstoned). It
// reports false when no visible row carries v; the error reports a
// merge-back failure of a delete that was accepted.
func (s *Segmenter) Delete(v domain.Value) (bool, QueryStats, error) {
	var st QueryStats
	list := s.eng.Base()
	if !list.Extent().Contains(v) {
		s.eng.Delta.RecordMiss()
		s.snapshot(&st)
		return false, st, nil
	}
	if !s.eng.Delta.Delete(v, s.baseCount) {
		s.snapshot(&st)
		return false, st, nil
	}
	st.WriteBytes += list.ElemSize()
	err := maybeMergeDeltas(s, &st)
	s.snapshot(&st)
	if so := s.ob.Load(); so != nil {
		so.write(so.wDel, &st)
	}
	return true, st, err
}

// Update implements DeltaStrategy: atomically replaces one occurrence of
// old with new under a single version — every snapshot sees either the
// old row or the new one.
func (s *Segmenter) Update(old, new domain.Value) (bool, QueryStats, error) {
	var st QueryStats
	list := s.eng.Base()
	if !list.Extent().Contains(old) || !list.Extent().Contains(new) {
		s.eng.Delta.RecordMiss()
		s.snapshot(&st)
		return false, st, nil
	}
	if !s.eng.Delta.Update(old, new, s.baseCount) {
		s.snapshot(&st)
		return false, st, nil
	}
	st.WriteBytes += 2 * list.ElemSize()
	err := maybeMergeDeltas(s, &st)
	s.snapshot(&st)
	if so := s.ob.Load(); so != nil {
		so.write(so.wUpd, &st)
	}
	return true, st, err
}

// ShareDeltaClock implements StampedWriter: rebinds the write store to a
// column-wide commit clock shared with sibling shards.
func (s *Segmenter) ShareDeltaClock(c *delta.Clock) { s.eng.Delta.ShareClock(c) }

// InsertStamped implements StampedWriter: Insert with an externally
// minted commit version, so a cross-shard update's two halves share one
// timestamp.
func (s *Segmenter) InsertStamped(ver int64, v domain.Value) (QueryStats, error) {
	var st QueryStats
	list := s.eng.Base()
	if !list.Extent().Contains(v) {
		return st, fmt.Errorf("core: insert value %d outside extent %v", v, list.Extent())
	}
	s.eng.Delta.InsertAt(ver, v)
	st.WriteBytes += list.ElemSize()
	err := maybeMergeDeltas(s, &st)
	s.snapshot(&st)
	if so := s.ob.Load(); so != nil {
		so.write(so.wIns, &st)
	}
	return st, err
}

// DeleteStamped implements StampedWriter: Delete with an externally
// minted commit version.
func (s *Segmenter) DeleteStamped(ver int64, v domain.Value) (bool, QueryStats, error) {
	var st QueryStats
	list := s.eng.Base()
	if !list.Extent().Contains(v) {
		s.eng.Delta.RecordMiss()
		s.snapshot(&st)
		return false, st, nil
	}
	if !s.eng.Delta.DeleteAt(ver, v, s.baseCount) {
		s.snapshot(&st)
		return false, st, nil
	}
	st.WriteBytes += list.ElemSize()
	err := maybeMergeDeltas(s, &st)
	s.snapshot(&st)
	if so := s.ob.Load(); so != nil {
		so.write(so.wDel, &st)
	}
	return true, st, err
}

// MergeDeltas implements DeltaStrategy: force-drains the write store
// into the base regardless of the thresholds.
func (s *Segmenter) MergeDeltas() (QueryStats, error) {
	var st QueryStats
	err := mergeDeltasNow(s, &st)
	s.snapshot(&st)
	if so := s.ob.Load(); so != nil {
		so.volumes(&st)
	}
	return st, err
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

// deltaMerger abstracts the strategy-specific halves of the merge-back
// path, so the trigger evaluation and drain protocol live in one place
// for both strategies (the thresholds and the store itself live on the
// shared engine; the thin forwarders below bridge the generic engine
// instantiations onto one interface).
type deltaMerger interface {
	deltaStore() *delta.Store
	deltaThresholds() (maxBytes, ratioBP int64)
	baseLogicalBytes() int64
	// obsHandle returns the strategy's current observability handles
	// (nil = uninstrumented), so the shared merge path accounts
	// merge-backs without knowing the concrete strategy.
	obsHandle() *strategyObs
	// applyDrained applies the drained entries under the strategy's
	// writer lock and publishes the rewritten base together with the
	// store's commit (engine.PublishMerged), so the post-merge base and
	// the drained store appear atomically to lock-free pinners.
	applyDrained(st *QueryStats, ins, del []domain.Value, commit func()) error
}

// maybeMergeDeltas drains the write store when a threshold trips.
func maybeMergeDeltas(m deltaMerger, st *QueryStats) error {
	maxB, ratioBP := m.deltaThresholds()
	if !deltaOverThreshold(m.deltaStore().PendingBytes(), maxB, ratioBP, m.baseLogicalBytes()) {
		return nil
	}
	return mergeDeltasNow(m, st)
}

// mergeDeltasNow drains the store through the strategy's single-writer
// rewrite path regardless of the thresholds.
func mergeDeltasNow(m deltaMerger, st *QueryStats) error {
	so := m.obsHandle()
	var begin time.Time
	if so != nil {
		begin = time.Now()
	}
	preRecodes := st.Recodes
	n, err := m.deltaStore().Merge(func(ins, del []domain.Value, commit func()) error {
		return m.applyDrained(st, ins, del, commit)
	})
	st.Merged += n
	if err == nil {
		so.merged(n, begin)
		so.recodes(st.Recodes - preRecodes)
	}
	return err
}

// deltaStore implements deltaMerger.
func (s *Segmenter) deltaStore() *delta.Store { return s.eng.Delta }

// deltaThresholds implements deltaMerger.
func (s *Segmenter) deltaThresholds() (int64, int64) { return s.eng.deltaThresholds() }

// baseLogicalBytes implements deltaMerger.
func (s *Segmenter) baseLogicalBytes() int64 { return s.totalBytes.Load() }

// obsHandle implements deltaMerger.
func (s *Segmenter) obsHandle() *strategyObs { return s.ob.Load() }

// applyDrained implements deltaMerger: the rewritten list and the
// drained store are published as one epoch step (PublishMerged), so
// lock-free pinners always see a consistent (list, delta) pair.
func (s *Segmenter) applyDrained(st *QueryStats, ins, del []domain.Value, commit func()) error {
	s.eng.Mu.Lock()
	defer s.eng.Mu.Unlock()
	next, mst, err := s.applyDeltaLocked(ins, del)
	if err != nil {
		return err
	}
	st.Add(mst)
	if next == nil {
		next = s.eng.Base() // nothing drained touched the base; re-stamp it
	}
	s.eng.PublishMerged(next, commit)
	return nil
}

// applyDeltaLocked stages the rewrite of every segment touched by the
// drained entries (caller holds eng.Mu): tombstones remove one
// occurrence each, inserts append, and each touched segment is rebuilt
// copy-on-write, re-encoded and accounted — the bulk-load pipeline with
// removals. The Segmenter's models then reorganize the merged rows on
// later queries. All rewrites are staged and validated before anything
// is accounted, and the caller publishes the returned list, so an error
// leaves the column (and the un-drained store) exactly as they were.
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

// batchTarget is the strategy surface the shared batch write path
// (applyOps) drives: the merge protocol plus the per-strategy extent,
// element size, base existence check and stats stamping. Both
// strategies satisfy it with methods they already have.
type batchTarget interface {
	deltaMerger
	writeExtent() domain.Range
	writeElem() int64
	baseCount(v domain.Value) int64
	snapshot(st *QueryStats)
}

// applyOps is the group-commit apply path shared by both strategies: the
// whole batch lands in the write store under ONE version bump and ONE
// snapshot publication (delta.ApplyBatch), then at most one merge-back
// threshold check runs for the batch. Per-op acceptance follows exactly
// the single-op rules — an out-of-extent insert is refused, an
// out-of-extent delete/update is refused and recorded as a miss, and
// in-extent deletes/updates validate against visible rows in op order.
// The returned error only reports a merge-back failure; per-op refusals
// are the false entries.
func applyOps(t batchTarget, ops []delta.Op) ([]bool, QueryStats, error) {
	var st QueryStats
	res := make([]bool, len(ops))
	if len(ops) == 0 {
		t.snapshot(&st)
		return res, st, nil
	}
	ext := t.writeExtent()
	elem := t.writeElem()
	// Extent screen: rejected ops never reach the store (mirrors the
	// single-op paths, which refuse before touching it).
	accepted := make([]delta.Op, 0, len(ops))
	origin := make([]int, 0, len(ops)) // accepted index -> ops index
	for i, op := range ops {
		switch op.Kind {
		case delta.OpInsert:
			if !ext.Contains(op.V) {
				continue
			}
		case delta.OpDelete:
			if !ext.Contains(op.V) {
				t.deltaStore().RecordMiss()
				continue
			}
		case delta.OpUpdate:
			if !ext.Contains(op.V) || !ext.Contains(op.New) {
				t.deltaStore().RecordMiss()
				continue
			}
		default:
			continue
		}
		accepted = append(accepted, op)
		origin = append(origin, i)
	}
	var nIns, nDel, nUpd int
	if len(accepted) > 0 {
		out := t.deltaStore().ApplyBatch(accepted, t.baseCount)
		for j, ok := range out {
			if !ok {
				continue
			}
			res[origin[j]] = true
			switch accepted[j].Kind {
			case delta.OpInsert:
				st.WriteBytes += elem
				nIns++
			case delta.OpDelete:
				st.WriteBytes += elem
				nDel++
			case delta.OpUpdate:
				st.WriteBytes += 2 * elem
				nUpd++
			}
		}
	}
	err := maybeMergeDeltas(t, &st)
	t.snapshot(&st)
	if so := t.obsHandle(); so != nil {
		so.writeBatch(nIns, nDel, nUpd, &st)
	}
	return res, st, err
}

// writeExtent implements batchTarget.
func (s *Segmenter) writeExtent() domain.Range { return s.eng.Base().Extent() }

// writeElem implements batchTarget.
func (s *Segmenter) writeElem() int64 { return s.eng.Base().ElemSize() }

// ApplyOps applies a group-committed batch of writes — see applyOps.
func (s *Segmenter) ApplyOps(ops []delta.Op) ([]bool, QueryStats, error) {
	return applyOps(s, ops)
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

// --- Replicator counterparts ---

// DeltaStats implements DeltaStrategy.
func (r *Replicator) DeltaStats() delta.Stats { return r.eng.DeltaStats() }

// extent returns the column's domain (the sentinel covers it all).
func (r *Replicator) extent() domain.Range { return r.eng.Base().seg.Rng }

// Insert implements DeltaStrategy.
func (r *Replicator) Insert(v domain.Value) (QueryStats, error) {
	var st QueryStats
	if !r.extent().Contains(v) {
		return st, fmt.Errorf("core: insert value %d outside extent %v", v, r.extent())
	}
	r.eng.Delta.Insert(v)
	st.WriteBytes += r.elemSize
	err := maybeMergeDeltas(r, &st)
	r.snapshot(&st)
	if so := r.ob.Load(); so != nil {
		so.write(so.wIns, &st)
	}
	return st, err
}

// Delete implements DeltaStrategy.
func (r *Replicator) Delete(v domain.Value) (bool, QueryStats, error) {
	var st QueryStats
	if !r.extent().Contains(v) {
		r.eng.Delta.RecordMiss()
		r.snapshot(&st)
		return false, st, nil
	}
	if !r.eng.Delta.Delete(v, r.baseCount) {
		r.snapshot(&st)
		return false, st, nil
	}
	st.WriteBytes += r.elemSize
	err := maybeMergeDeltas(r, &st)
	r.snapshot(&st)
	if so := r.ob.Load(); so != nil {
		so.write(so.wDel, &st)
	}
	return true, st, err
}

// Update implements DeltaStrategy.
func (r *Replicator) Update(old, new domain.Value) (bool, QueryStats, error) {
	var st QueryStats
	if !r.extent().Contains(old) || !r.extent().Contains(new) {
		r.eng.Delta.RecordMiss()
		r.snapshot(&st)
		return false, st, nil
	}
	if !r.eng.Delta.Update(old, new, r.baseCount) {
		r.snapshot(&st)
		return false, st, nil
	}
	st.WriteBytes += 2 * r.elemSize
	err := maybeMergeDeltas(r, &st)
	r.snapshot(&st)
	if so := r.ob.Load(); so != nil {
		so.write(so.wUpd, &st)
	}
	return true, st, err
}

// ShareDeltaClock implements StampedWriter.
func (r *Replicator) ShareDeltaClock(c *delta.Clock) { r.eng.Delta.ShareClock(c) }

// InsertStamped implements StampedWriter.
func (r *Replicator) InsertStamped(ver int64, v domain.Value) (QueryStats, error) {
	var st QueryStats
	if !r.extent().Contains(v) {
		return st, fmt.Errorf("core: insert value %d outside extent %v", v, r.extent())
	}
	r.eng.Delta.InsertAt(ver, v)
	st.WriteBytes += r.elemSize
	err := maybeMergeDeltas(r, &st)
	r.snapshot(&st)
	if so := r.ob.Load(); so != nil {
		so.write(so.wIns, &st)
	}
	return st, err
}

// DeleteStamped implements StampedWriter.
func (r *Replicator) DeleteStamped(ver int64, v domain.Value) (bool, QueryStats, error) {
	var st QueryStats
	if !r.extent().Contains(v) {
		r.eng.Delta.RecordMiss()
		r.snapshot(&st)
		return false, st, nil
	}
	if !r.eng.Delta.DeleteAt(ver, v, r.baseCount) {
		r.snapshot(&st)
		return false, st, nil
	}
	st.WriteBytes += r.elemSize
	err := maybeMergeDeltas(r, &st)
	r.snapshot(&st)
	if so := r.ob.Load(); so != nil {
		so.write(so.wDel, &st)
	}
	return true, st, err
}

// MergeDeltas implements DeltaStrategy.
func (r *Replicator) MergeDeltas() (QueryStats, error) {
	var st QueryStats
	err := mergeDeltasNow(r, &st)
	r.snapshot(&st)
	if so := r.ob.Load(); so != nil {
		so.volumes(&st)
	}
	return st, err
}

// writeExtent implements batchTarget.
func (r *Replicator) writeExtent() domain.Range { return r.extent() }

// writeElem implements batchTarget.
func (r *Replicator) writeElem() int64 { return r.elemSize }

// ApplyOps applies a group-committed batch of writes — see applyOps.
func (r *Replicator) ApplyOps(ops []delta.Op) ([]bool, QueryStats, error) {
	return applyOps(r, ops)
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

// deltaStore implements deltaMerger.
func (r *Replicator) deltaStore() *delta.Store { return r.eng.Delta }

// deltaThresholds implements deltaMerger.
func (r *Replicator) deltaThresholds() (int64, int64) { return r.eng.deltaThresholds() }

// baseLogicalBytes implements deltaMerger.
func (r *Replicator) baseLogicalBytes() int64 { return r.totalBytes.Load() }

// obsHandle implements deltaMerger.
func (r *Replicator) obsHandle() *strategyObs { return r.ob.Load() }

// applyDrained implements deltaMerger (see Segmenter.applyDrained).
func (r *Replicator) applyDrained(st *QueryStats, ins, del []domain.Value, commit func()) error {
	r.eng.Mu.Lock()
	defer r.eng.Mu.Unlock()
	next, mst, err := r.applyDeltaLocked(ins, del)
	if err != nil {
		return err
	}
	st.Add(mst)
	if next == nil {
		next = r.eng.Base() // all entries cancelled out; re-stamp the root
	}
	r.eng.PublishMerged(next, commit)
	return nil
}

// applyDeltaLocked builds the post-merge replica tree (caller holds
// eng.Mu): one batched routing pass partitions every drained insert and
// tombstone down the tree, so each touched replica is rewritten exactly
// once per merge batch no matter how many entries its range covers — a
// tombstone removes one occurrence of its value from every materialized
// replica on the value's path (replicas are copies), inserts follow the
// bulk-load routing, and virtual estimates adjust by the net count.
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
				if len(del) == 0 && seg.Enc != nil && !r.noEncodedSplice {
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

// routedSorted returns a sorted copy (the routing pass partitions by
// binary search).
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
