// Package delta implements the MVCC write store that gives the
// self-organizing column a point-write path: batched Insert, Update and
// Delete ops (one op is a batch of one) with snapshot visibility over
// the read-optimized, bulk-load-shaped base the paper describes (§7).
//
// The design realizes, in memory, the delta-BAT merge the paper's §2
// query plans already assume: MonetDB keeps per-column insert/update
// bats and a deletion bat, and every plan unions the inserts in and
// masks the deletes out (Figure 1's kunion/kdifference chain). Here the
// same shape appears as a per-column Store of version-stamped entries —
// inserts and tombstones — that a query overlays onto its immutable
// segment snapshot: visible inserts are unioned into the result, visible
// tombstones mask one base occurrence each.
//
// # Visibility rule
//
// Every batch is stamped with one monotonically increasing version. A
// query pins a Snapshot at start; the snapshot carries the watermark —
// the highest version published at pin time — and the pinned entry set.
// An insert entry is visible iff its version is at or below the
// watermark and it has not been cancelled by a delete at or below the
// watermark; a tombstone is visible iff its version is at or below the
// watermark. Writers only ever append entries and bump versions above
// every pinned watermark, so concurrent writers never perturb an
// in-flight scan: the scan's snapshot is immutable and its watermark
// filters out everything younger.
//
// # Sorted runs (LSM level 0)
//
// The pending set is organized as a tiny LSM level 0 with one placement
// rule: every fresh entry — from a single op or a group-committed batch
// alike — is appended to an unsorted tail (the memtable); once a batch
// leaves the tail holding tailSealLen entries or more, the tail is
// sealed into one immutable run sorted by value, and when too many runs
// pile up they compact into one. Overlay reads binary-search each run's
// value window instead of scanning every pending entry, so a query
// touching a narrow range pays for the entries in that range (plus the
// small tail), not for the whole delta.
//
// # Merge-back
//
// Checkpointing drains the pending entries into the base through the
// caller-supplied apply function (the single-writer
// BulkLoad/reorganization pipeline of internal/core), after which the
// self-organizing Segmenter and Replicator absorb the merged rows and
// adapt the layout exactly as the paper prescribes for bulk loads.
// Merge-back is triggered by the core layer's delta-size and
// delta-to-base-ratio thresholds, so the store stays small relative to
// the base — the standard LSM/Hyrise-style arrangement of a write store
// checkpointed into a read-optimized one (see PAPERS.md).
package delta

import (
	"sort"
	"sync"
	"sync/atomic"

	"selforg/internal/domain"
)

// Kind distinguishes the two entry flavours of the write store.
type Kind uint8

const (
	// KInsert carries a freshly written value not yet in the base.
	KInsert Kind = iota
	// KTombstone masks one base occurrence of its value.
	KTombstone
)

const (
	// tailSealLen is the unsorted-tail length at which the tail is
	// sealed into a sorted run.
	tailSealLen = 64
	// maxRuns caps the level-0 run count; one past it triggers a full
	// compaction into a single run.
	maxRuns = 8
)

// Entry is one version-stamped write. Entries are immutable after
// publication except for deletedAt, which a later delete may set on an
// insert entry (atomically — pinned snapshots read it through the
// visibility rule, so older watermarks keep seeing the insert).
type Entry struct {
	Version int64
	Kind    Kind
	Value   domain.Value
	// ord is the store-wide creation order, used by Merge to drain
	// entries in exact write order regardless of which run they sorted
	// into.
	ord int64
	// deletedAt is the version of the delete that cancelled this insert
	// entry (0 = live). Only meaningful for KInsert.
	deletedAt atomic.Int64
}

// run is one immutable sorted component of level 0: entries ordered by
// value, with the min/max window cached for skip checks.
type run struct {
	ents   []*Entry
	lo, hi domain.Value
}

// Op is one record of a batch write — the unit the WAL logs and Apply
// applies under its batch's single version.
type Op struct {
	Kind OpKind
	// V is the inserted value (OpInsert), the deleted value (OpDelete),
	// or the old value (OpUpdate).
	V domain.Value
	// New is the replacement value (OpUpdate only).
	New domain.Value
}

// OpKind identifies the write operation an Op carries.
type OpKind uint8

const (
	// OpInsert inserts V.
	OpInsert OpKind = iota
	// OpDelete deletes one occurrence of V.
	OpDelete
	// OpUpdate replaces one occurrence of V with New.
	OpUpdate
	// OpSkip is refused by Apply without counting a miss: a caller that
	// has refused an op itself passes it on as OpSkip, so the batch keeps
	// its indices.
	OpSkip
)

// Clock is a monotonically increasing commit-version source. Every
// Store owns a private one by default; sharing a single Clock across
// several Stores (ShareClock) makes their versions mutually comparable
// — the column-wide commit timestamp a sharded column needs so a
// cross-shard update can stamp its delete half and its insert half,
// which live in two different Stores, with ONE version.
type Clock struct{ v atomic.Int64 }

// NewClock returns a clock starting at zero.
func NewClock() *Clock { return &Clock{} }

// Next returns the next version — strictly greater than every version
// issued before, across every store sharing the clock.
func (c *Clock) Next() int64 { return c.v.Add(1) }

// Now returns the last issued version.
func (c *Clock) Now() int64 { return c.v.Load() }

// advanceTo moves the clock forward to at least v (joining a store that
// already stamped versions from its private clock).
func (c *Clock) advanceTo(v int64) {
	for {
		cur := c.v.Load()
		if cur >= v || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot is an immutable view of the store, pinned by a query at
// start: the pending entries published at pin time plus the watermark
// that filters their visibility. Snapshots survive later writes and
// merges untouched — a reader holding one keeps a consistent view of
// the delta regardless of what the store does afterwards.
type Snapshot struct {
	runs      []*run
	tail      []*Entry
	n         int
	watermark int64
	elemSize  int64
	// mergedThrough mirrors the store's merge progress at pin time
	// (diagnostics; the core layer pairs the snapshot with the matching
	// base snapshot via mergeEpoch, so readers never need it).
	mergedThrough int64
	// mergeEpoch is the number of draining merges committed before this
	// snapshot was published. The core publication engine pairs a base
	// snapshot carrying the same epoch with this delta snapshot to pin a
	// consistent (base, delta) view without taking any lock: a merged
	// entry is visible either through the overlay (old epoch on both
	// sides) or through the base (new epoch on both sides), never both.
	mergeEpoch int64
}

// Watermark returns the highest version visible through this snapshot.
func (s *Snapshot) Watermark() int64 { return s.watermark }

// MergeEpoch returns the number of draining merges committed before this
// snapshot was published — the pairing key of the lock-free (base,
// delta) pin in internal/core.
func (s *Snapshot) MergeEpoch() int64 {
	if s == nil {
		return 0
	}
	return s.mergeEpoch
}

// Len returns the number of pinned pending entries.
func (s *Snapshot) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Bytes returns the logical size of the pinned pending entries.
func (s *Snapshot) Bytes() int64 {
	if s == nil {
		return 0
	}
	return int64(s.n) * s.elemSize
}

// forRange calls fn for every pinned entry whose value lies in q: each
// sorted run contributes its binary-searched value window, the unsorted
// tail is scanned linearly (it holds fewer than tailSealLen entries).
func (s *Snapshot) forRange(q domain.Range, fn func(*Entry)) {
	for _, r := range s.runs {
		if r.hi < q.Lo || r.lo > q.Hi {
			continue
		}
		ents := r.ents
		i := sort.Search(len(ents), func(i int) bool { return ents[i].Value >= q.Lo })
		for ; i < len(ents) && ents[i].Value <= q.Hi; i++ {
			fn(ents[i])
		}
	}
	for _, e := range s.tail {
		if q.Contains(e.Value) {
			fn(e)
		}
	}
}

// OverlayBytes returns the logical volume an overlay of query range q
// actually examines: the binary-searched run windows plus the unsorted
// tail. This is the per-query delta read cost — at narrow selectivities
// it is far below Bytes(), which charges the whole pending set.
func (s *Snapshot) OverlayBytes(q domain.Range) int64 {
	if s == nil || s.n == 0 {
		return 0
	}
	var m int64
	for _, r := range s.runs {
		if r.hi < q.Lo || r.lo > q.Hi {
			continue
		}
		ents := r.ents
		lo := sort.Search(len(ents), func(i int) bool { return ents[i].Value >= q.Lo })
		hi := sort.Search(len(ents), func(i int) bool { return ents[i].Value > q.Hi })
		m += int64(hi - lo)
	}
	m += int64(len(s.tail))
	return m * s.elemSize
}

// visibleInsert reports whether e is a live insert at this snapshot's
// watermark.
func (s *Snapshot) visibleInsert(e *Entry) bool {
	if e.Kind != KInsert || e.Version > s.watermark {
		return false
	}
	d := e.deletedAt.Load()
	return d == 0 || d > s.watermark
}

// visibleTombstone reports whether e masks a base row at this
// snapshot's watermark.
func (s *Snapshot) visibleTombstone(e *Entry) bool {
	return e.Kind == KTombstone && e.Version <= s.watermark
}

// RemoveOccurrences filters vals in place, removing one occurrence of v
// for every count in dead (the multiset subtraction behind tombstone
// masking). It decrements dead as it consumes it and returns the kept
// prefix plus the number of values removed; leftover positive counts in
// dead are tombstones that found no target. A 64-bit filter with one
// hashed bit per dead value keeps most values of a segment with a few
// tombstones away from the map.
func RemoveOccurrences(vals []domain.Value, dead map[domain.Value]int) ([]domain.Value, int64) {
	if len(dead) == 0 {
		return vals, 0
	}
	var filter uint64
	for v := range dead {
		filter |= 1 << filterBit(v)
	}
	kept := vals[:0]
	var removed int64
	for _, v := range vals {
		if filter&(1<<filterBit(v)) != 0 {
			if n := dead[v]; n > 0 {
				dead[v] = n - 1
				removed++
				continue
			}
		}
		kept = append(kept, v)
	}
	return kept, removed
}

// filterBit hashes v to a bit of RemoveOccurrences' filter (the top six
// bits of a Fibonacci hash).
func filterBit(v domain.Value) uint64 { return uint64(v) * 0x9e3779b97f4a7c15 >> 58 }

// Overlay merges the snapshot onto a base scan of query range q: visible
// tombstones remove one occurrence of their value from base, visible
// inserts inside q are appended. This is the in-memory realization of
// the Figure-1 delta chain — kdifference then kunion. base is mutated
// and returned (order of the result is unspecified, like Select's).
func (s *Snapshot) Overlay(q domain.Range, base []domain.Value) []domain.Value {
	if s.Len() == 0 {
		return base
	}
	var dead map[domain.Value]int
	s.forRange(q, func(e *Entry) {
		if s.visibleTombstone(e) {
			if dead == nil {
				dead = make(map[domain.Value]int)
			}
			dead[e.Value]++
		}
	})
	base, _ = RemoveOccurrences(base, dead)
	s.forRange(q, func(e *Entry) {
		if s.visibleInsert(e) {
			base = append(base, e.Value)
		}
	})
	return base
}

// CountDelta returns the net contribution of the snapshot to query range
// q, as a cardinality and a value sum: visible inserts minus visible
// tombstones inside q. The counting and summing paths add it to the base
// aggregate — tombstones always mask an existing base row carrying their
// value (a delete validates existence), so both totals are exact.
func (s *Snapshot) CountDelta(q domain.Range) (n, sum int64) {
	if s.Len() == 0 {
		return 0, 0
	}
	s.forRange(q, func(e *Entry) {
		switch {
		case s.visibleInsert(e):
			n++
			sum += e.Value
		case s.visibleTombstone(e):
			n--
			sum -= e.Value
		}
	})
	return n, sum
}

// Stats aggregates the store's lifetime counters.
type Stats struct {
	// Inserts, Updates and Deletes count the accepted write operations;
	// DeleteMisses the delete and update ops refused because no visible
	// row carried the value.
	Inserts, Updates, Deletes, DeleteMisses int64
	// Pending is the current unmerged entry count, PendingBytes its
	// logical size.
	Pending      int
	PendingBytes int64
	// Runs is the current sorted-run count (the unsorted tail not
	// included).
	Runs int
	// Merges counts completed merge-backs, MergedEntries the entries
	// they drained (cancelled insert/delete pairs included).
	Merges        int64
	MergedEntries int64
	// Publications counts snapshot publications since the store was
	// built: one per batch that accepted an op, one per merge-back.
	Publications int64
	// Watermark is the current version high-water mark.
	Watermark int64
}

// Store is the per-column MVCC write store. Writes serialize on an
// internal mutex and publish immutable snapshots through an atomic
// pointer; readers never lock. The zero value is not usable — construct
// with NewStore.
type Store struct {
	mu       sync.Mutex
	elemSize int64
	// clock mints versions; version is the highest version this store
	// has stamped (its watermark at publication time). With a private
	// clock the two track each other exactly; with a shared clock
	// (ShareClock) version lags the clock by whatever other stores
	// stamped in between.
	clock   *Clock
	version int64
	ord     int64 // entry creation counter, drives Merge drain order
	// runs holds the sealed, value-sorted level-0 components; tail the
	// unsorted recent writes not yet sealed. Both are copy-on-seal under
	// mu; published snapshots reference immutable run slices and a
	// length-capped view of the tail.
	runs []*run
	tail []*Entry
	// count is the total pending entry count across runs and tail
	// (cancelled insert/delete pairs included, as before).
	count int
	// liveIns indexes pending live insert entries by value, so a delete
	// can cancel a not-yet-merged insert in O(1).
	liveIns map[domain.Value][]*Entry
	// tombs counts pending tombstones by value, for delete validation
	// against the base.
	tombs map[domain.Value]int
	snap  atomic.Pointer[Snapshot]

	mergedThrough int64
	mergeEpoch    atomic.Int64 // bumped by every draining merge

	inserts, updates, deletes, misses int64
	merges, mergedEntries             int64
	pubs                              int64
}

// NewStore builds an empty write store accounting elemSize bytes per
// entry (the column's accounted element width).
func NewStore(elemSize int64) *Store {
	if elemSize < 1 {
		elemSize = 1
	}
	d := &Store{
		elemSize: elemSize,
		clock:    NewClock(),
		liveIns:  make(map[domain.Value][]*Entry),
		tombs:    make(map[domain.Value]int),
	}
	d.snap.Store(&Snapshot{elemSize: elemSize})
	return d
}

// ShareClock rebinds the store to a shared commit clock, advancing the
// clock past every version this store already stamped. Call before the
// store sees concurrent writers (internal/shard does, right after
// build), not mid-stream.
func (d *Store) ShareClock(c *Clock) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c.advanceTo(d.version)
	d.clock = c
}

// stamp resolves the version a write carries: ver == 0 mints the next
// one from the clock; a supplied ver (a cross-shard commit stamp from the
// shared clock) is recorded as this store's high-water mark without
// minting (caller holds mu).
func (d *Store) stamp(ver int64) int64 {
	if ver == 0 {
		ver = d.clock.Next()
	}
	if ver > d.version {
		d.version = ver
	}
	return ver
}

// Snapshot pins the current state: pending entries plus watermark. The
// returned snapshot is immutable; the caller may hold it for as long as
// it likes.
func (d *Store) Snapshot() *Snapshot { return d.snap.Load() }

// publish installs a fresh snapshot of the current pending state
// (caller holds mu).
func (d *Store) publish() {
	d.pubs++
	d.snap.Store(&Snapshot{
		runs:          d.runs[:len(d.runs):len(d.runs)],
		tail:          d.tail[:len(d.tail):len(d.tail)],
		n:             d.count,
		watermark:     d.version,
		elemSize:      d.elemSize,
		mergedThrough: d.mergedThrough,
		mergeEpoch:    d.mergeEpoch.Load(),
	})
}

// add mints a pending entry at version ver and appends it to the
// unsorted tail, indexing a live insert for cancellation (caller holds
// mu). Every fresh entry lands here, whatever the batch size.
func (d *Store) add(ver int64, k Kind, v domain.Value) {
	d.ord++
	e := &Entry{Version: ver, Kind: k, Value: v, ord: d.ord}
	d.count++
	d.tail = append(d.tail, e)
	if k == KInsert {
		d.liveIns[v] = append(d.liveIns[v], e)
	}
}

// remove deletes one visible occurrence of v at version ver (caller
// holds mu and has checked that one exists): the youngest pending
// insert of v is cancelled in place — older watermarks keep seeing it —
// otherwise a tombstone masks one base row.
func (d *Store) remove(ver int64, v domain.Value) {
	if live := d.liveIns[v]; len(live) > 0 {
		live[len(live)-1].deletedAt.Store(ver)
		d.liveIns[v] = live[:len(live)-1]
		return
	}
	d.tombs[v]++
	d.add(ver, KTombstone, v)
}

// sealTail freezes the tail as one run sorted by value (stably — equal
// values keep write order), compacting level 0 when it grows past
// maxRuns. The tail is copied first: published snapshots hold views of
// it in arrival order.
func (d *Store) sealTail() {
	ents := append([]*Entry(nil), d.tail...)
	d.tail = nil
	sort.SliceStable(ents, func(i, j int) bool { return ents[i].Value < ents[j].Value })
	d.runs = append(d.runs, &run{ents: ents, lo: ents[0].Value, hi: ents[len(ents)-1].Value})
	if len(d.runs) > maxRuns {
		d.compactRuns()
	}
}

// compactRuns merges every level-0 run into one. Old runs stay intact
// for the snapshots that pinned them; the merged run is a fresh slice.
func (d *Store) compactRuns() {
	total := 0
	for _, r := range d.runs {
		total += len(r.ents)
	}
	all := make([]*Entry, 0, total)
	for _, r := range d.runs {
		all = append(all, r.ents...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Value < all[j].Value })
	d.runs = []*run{{ents: all, lo: all[0].Value, hi: all[len(all)-1].Value}}
}

// Apply applies a batch of write operations — one op or a group commit —
// under ONE version and ONE snapshot publication, and reports op i's
// acceptance in res[i] (len(res) == len(ops)). Inserts always succeed; a delete or update refuses when no
// visible row carries its value (evaluated in op order, so an op sees
// the batch's earlier ops); OpSkip and unknown kinds are refused. A value
// inserted and deleted within one batch is visible at no watermark.
//
// ver == 0 mints the batch's version at its first accepted op, and the
// batch publishes only if it accepted an op: a batch refused whole
// leaves the watermark and the publication count alone. A non-zero ver
// is an externally minted stamp — a half of a cross-shard update, whose
// other half (in another store sharing the clock) carries the SAME
// version — recorded as this store's high-water mark either way; the
// caller must hold such versions in commit order and exclude concurrent
// pin sweeps around the pair. baseCount must report, free of side
// effects, how many base rows currently carry a value.
//
// Fresh entries are appended to the unsorted tail, which seals into one
// sorted run once the batch leaves it holding tailSealLen entries or
// more.
func (d *Store) Apply(ver int64, ops []Op, res []bool, baseCount func(domain.Value) int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ver != 0 {
		d.stamp(ver)
	}
	accepted := false
	for i, op := range ops {
		res[i] = false
		if op.Kind > OpUpdate {
			continue
		}
		// A delete or update needs a visible row: a pending live insert,
		// or a base row no pending tombstone already masks.
		if op.Kind != OpInsert && len(d.liveIns[op.V]) == 0 && baseCount(op.V) <= int64(d.tombs[op.V]) {
			d.misses++
			continue
		}
		if ver == 0 {
			ver = d.stamp(0)
		}
		switch op.Kind {
		case OpInsert:
			d.add(ver, KInsert, op.V)
			d.inserts++
		case OpDelete:
			d.remove(ver, op.V)
			d.deletes++
		case OpUpdate:
			d.remove(ver, op.V)
			d.add(ver, KInsert, op.New)
			d.updates++
		}
		res[i], accepted = true, true
	}
	if !accepted {
		return
	}
	if len(d.tail) >= tailSealLen {
		d.sealTail()
	}
	d.publish()
}

// PendingBytes returns the logical size of the unmerged entries — the
// measure the core layer's merge thresholds watch.
func (d *Store) PendingBytes() int64 {
	return d.Snapshot().Bytes()
}

// RecordMiss counts a refused write that never reached the store — the
// core layer reports extent-rejected delete and update ops here so
// Stats.DeleteMisses covers every refusal uniformly.
func (d *Store) RecordMiss() {
	d.mu.Lock()
	d.misses++
	d.mu.Unlock()
}

// MergeEpoch returns the number of draining merges completed so far — a
// lock-free diagnostic counter (the core layer tracks view staleness on
// its own content epoch, which also covers bulk loads).
func (d *Store) MergeEpoch() int64 { return d.mergeEpoch.Load() }

// Merge drains every pending entry into the base: live inserts and base
// tombstones are handed to apply (cancelled insert/delete pairs vanish —
// they never touched the base). Entries drain in exact write order (by
// creation ord, not run order), so apply sees the same sequence it
// always has. The store's mutex is held across apply, so writes that
// race the merge-back wait and land in the next delta generation.
//
// apply receives a commit function it MUST call at the point where the
// drained (empty) store snapshot should be published — while still
// holding the base's writer lock, immediately after publishing the
// rewritten base. That makes the two publications atomic for readers,
// who pin their (base snapshot, delta snapshot) pair under the same
// writer lock: a merged entry is visible either through the overlay or
// through the base, never both, never neither. If apply returns an
// error without committing, the store is left untouched. Returns the
// number of entries drained.
func (d *Store) Merge(apply func(inserts, tombstones []domain.Value, commit func()) error) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.count == 0 {
		return 0, nil
	}
	all := make([]*Entry, 0, d.count)
	for _, r := range d.runs {
		all = append(all, r.ents...)
	}
	all = append(all, d.tail...)
	sort.Slice(all, func(i, j int) bool { return all[i].ord < all[j].ord })
	var ins, del []domain.Value
	for _, e := range all {
		switch e.Kind {
		case KInsert:
			if e.deletedAt.Load() == 0 {
				ins = append(ins, e.Value)
			}
		case KTombstone:
			del = append(del, e.Value)
		}
	}
	n := d.count
	committed := false
	commit := func() {
		if committed {
			return
		}
		committed = true
		d.mergedEntries += int64(n)
		d.merges++
		d.mergedThrough = d.version
		d.runs = nil
		d.tail = nil
		d.count = 0
		d.liveIns = make(map[domain.Value][]*Entry)
		d.tombs = make(map[domain.Value]int)
		// Bump the epoch before publishing so the drained snapshot
		// carries it — lock-free readers pair it with the base snapshot
		// published just before commit was called.
		d.mergeEpoch.Add(1)
		d.publish()
	}
	if err := apply(ins, del, commit); err != nil {
		if committed {
			panic("delta: merge apply committed and then failed — store and base diverged")
		}
		return 0, err
	}
	commit() // defensive: a nil-error apply that forgot to commit
	return n, nil
}

// Stats returns the store's lifetime counters.
func (d *Store) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Inserts:       d.inserts,
		Updates:       d.updates,
		Deletes:       d.deletes,
		DeleteMisses:  d.misses,
		Pending:       d.count,
		PendingBytes:  int64(d.count) * d.elemSize,
		Runs:          len(d.runs),
		Merges:        d.merges,
		MergedEntries: d.mergedEntries,
		Publications:  d.pubs,
		Watermark:     d.version,
	}
}
