package core

// The snapshot-publication engine shared by both self-organizing
// strategies: a writer mutex, an atomically published immutable base
// snapshot, an MVCC write store, and the merge-back commit protocol that
// publishes the rewritten base and the drained store as one atomic step
// — parameterized over the base snapshot type: `*segment.List` for
// segmentation, the replica tree's root `*node` for replication.
//
// # Lock-free consistent pins
//
// The engine publishes the base through an atomic pointer and the delta
// store publishes its snapshots the same way, so either can be loaded
// without a lock — but a reader needs the *pair* to be consistent: after
// a merge-back drains pending writes into the base, pairing the new base
// with a pre-drain delta snapshot would double-count the merged entries,
// and pairing the old base with the drained snapshot would lose them.
// Rather than serializing pinners through the writer mutex, the engine
// stamps every published base with the number of merges drained into it
// and the delta store stamps every snapshot with the number of merges
// committed before it; Pin loads both sides and retries until the two
// epochs agree. Non-merge publications keep their side's epoch, so the
// loop only ever retries inside the few instructions between a merge's
// base publication and its store commit — pinners are wait-free in
// steady state and never block on reorganization, bulk loads or
// merge-backs.
//
// Everything else keeps a single-writer discipline: all base mutations
// happen under Mu and publish via Publish (same epoch) or PublishMerged
// (epoch + 1, paired with the store's commit callback).

import (
	"sync"
	"sync/atomic"
	"time"

	"selforg/internal/delta"
	"selforg/internal/domain"
	"selforg/internal/obs"
)

// published is one (base snapshot, merge epoch) pair.
type published[B any] struct {
	base  *B
	epoch int64 // delta merges drained into this base
}

// engine owns the publication state of one strategy instance.
type engine[B any] struct {
	// Mu is the single-writer path: model decisions and every base
	// mutation (splits, replica materialization, drops, bulk loads,
	// merge-backs, re-encoding) happen under it. A query takes it only
	// through lock, and only to adapt: a Segmenter query plans under it,
	// gives it back before scanning and re-takes it to apply the splits
	// its plan holds; a Replicator query scans without it and takes it
	// after the scan when its cover has adaptation work, which it then
	// applies itself (replica materialization copies payload under it).
	// Pinned views never take it.
	Mu  sync.Mutex
	cur atomic.Pointer[published[B]]
	// Delta is the column's MVCC write store: queries pin it beside the
	// base, the strategy's deltaWriter writes into it.
	Delta *delta.Store
	// pub counts base publications (snapshot installs) when an observer
	// is attached; obs.Counter methods are nil-safe, so the unobserved
	// cost is one atomic load per publication.
	pub atomic.Pointer[obs.Counter]
}

// lock acquires Mu for a query and accounts how long the query queued
// for it in selforg_writer_lock_wait_ns and the span's lock-wait phase.
// It is the one way a query takes Mu, for both strategies. The
// uncontended case is one TryLock and a zero observation — no clock
// call; only a query that actually waits reads the clock.
func (e *engine[B]) lock(so *strategyObs, span *obs.Span) {
	if so == nil {
		e.Mu.Lock()
		return
	}
	var wait time.Duration
	if !e.Mu.TryLock() {
		t0 := time.Now()
		e.Mu.Lock()
		wait = time.Since(t0)
	}
	so.lockWait.Observe(int64(wait))
	span.Add(obs.PhaseLockWait, wait)
}

// setPublishCounter attaches the publication counter (nil detaches).
func (e *engine[B]) setPublishCounter(c *obs.Counter) { e.pub.Store(c) }

// initEngine installs the initial base snapshot and a fresh write store.
func (e *engine[B]) initEngine(base *B, elemSize int64) {
	e.Delta = delta.NewStore(elemSize)
	e.cur.Store(&published[B]{base: base})
}

// Base returns the current base snapshot without ordering against the
// delta store — for accessors (layout, stats, validation) and for the
// writer path, which holds Mu anyway.
func (e *engine[B]) Base() *B { return e.cur.Load().base }

// Pin returns a consistent (base, delta) pair without taking any lock.
// Two checks close the two interleavings that could tear the pair:
//
//   - The epoch match catches a merge-back landing between the two
//     loads: its base (epoch+1) must not pair with the pre-drain store
//     (double-count) nor the old base with the drained store (loss).
//   - The pointer re-check catches a content-changing same-epoch
//     publication (a bulk load) landing between the two loads: pairing
//     the pre-load base with a delta snapshot taken after the load
//     would expose a column state that never existed. Publications
//     always store a freshly allocated pair, so an unchanged pointer
//     proves no publication completed in between (no ABA).
//
// Both windows are a few instructions wide; readers are wait-free in
// steady state.
func (e *engine[B]) Pin() (*B, *delta.Snapshot) {
	for {
		p := e.cur.Load()
		ds := e.Delta.Snapshot()
		if p.epoch == ds.MergeEpoch() && e.cur.Load() == p {
			return p.base, ds
		}
	}
}

// Publish installs a new base snapshot that carries the same logical
// delta state (reorganization, bulk load, re-encoding). Caller holds Mu.
func (e *engine[B]) Publish(base *B) {
	e.cur.Store(&published[B]{base: base, epoch: e.cur.Load().epoch})
	e.pub.Load().Inc()
}

// PublishMerged installs a base snapshot that has absorbed a drained
// delta batch, then commits the drain: the epoch bump on the base side
// and commit's epoch bump on the store side re-align the pair for
// lock-free pinners. Caller holds Mu and is inside delta.Store.Merge
// (commit is Merge's callback).
func (e *engine[B]) PublishMerged(base *B, commit func()) {
	e.cur.Store(&published[B]{base: base, epoch: e.cur.Load().epoch + 1})
	commit()
	e.pub.Load().Inc()
}

// applyDrained is the one base rewrite commit shared by both strategies
// (their writeHooks.applyDrained), for merge-backs and bulk loads alike:
// under Mu, stage rewrites the base with the entries — returning nil
// when nothing touched it. A merge-back's result is published together
// with the store's commit (PublishMerged), so lock-free pinners always
// see a consistent (base, delta) pair; a bulk load has no store to
// commit (nil commit) and publishes with Publish. A staging error leaves
// base and store untouched.
func (e *engine[B]) applyDrained(stage func(ins, del []domain.Value) (*B, QueryStats, error),
	st *QueryStats, ins, del []domain.Value, commit func()) error {
	e.Mu.Lock()
	defer e.Mu.Unlock()
	next, mst, err := stage(ins, del)
	if err != nil {
		return err
	}
	st.Add(mst)
	if commit == nil {
		if next != nil {
			e.Publish(next)
		}
		return nil
	}
	if next == nil {
		next = e.Base() // re-stamp the current base with the new epoch
	}
	e.PublishMerged(next, commit)
	return nil
}
