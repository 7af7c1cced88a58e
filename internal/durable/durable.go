// Package durable implements the group-commit protocol over the
// per-shard write-ahead logs of internal/wal: concurrent writers submit
// single operations, one committer goroutine gathers them into batches,
// appends each batch's per-shard slices to the shard logs, fsyncs,
// applies the whole batch to the column under one version bump and one
// snapshot publication per touched shard that accepted an op, and only
// then acknowledges every writer in the batch. Recovery replays the logs
// onto the last checkpoint.
//
// # Checkpoint trigger
//
// A checkpoint runs when the shard logs together hold ckptLogBytes or
// more: the committer takes it after the batch that crosses the cap,
// before acking that batch, and the logs rotate to empty. So recovery
// replays at most ckptLogBytes of log plus one batch, onto shards that
// the checkpoint rebuilds with their segment layout (wal.Segment).
// Merge-backs do not trigger checkpoints: a merge-back makes the logs
// behind it redundant, not urgent.
//
// # Commit protocol
//
//  1. Gather: the committer takes one queued request, then
//     opportunistically drains everything already waiting (and, when a
//     group window is configured, keeps gathering until it elapses), up
//     to the batch cap.
//  2. Log: the batch gets the next commit seq; each shard's slice of
//     the batch is appended to that shard's log under the seq.
//  3. Sync: every touched log is fsynced (when Fsync is on; off trades
//     machine-crash durability for speed — process crashes, including
//     SIGKILL, still lose nothing because the appends reached the
//     kernel before anyone was acked).
//  4. Apply: the whole batch is applied through the column's batch
//     write path — one version bump, one snapshot publication per
//     touched shard that accepted an op (the write-amplification fix
//     this subsystem rides on).
//  5. Ack: every writer in the batch gets its per-op result. An append
//     or sync error fails the whole batch WITHOUT applying it — no
//     write is ever visible unless it is logged. The failed batch's
//     frames are truncated back out of the touched logs and its seq is
//     burned (never reused), so a nacked batch can neither replay as
//     committed nor shadow a later acknowledged batch at the same seq.
//
// # Halting
//
// Two failures leave the logs and the live column irreconcilable
// without recovery: a durably-logged batch the column's apply side then
// rejected (the batch will replay on reopen, but the in-memory state
// diverged), and a failed batch whose frame rollback itself failed
// (frames that were never acknowledged sit in the logs). In both cases
// the committer halts — every subsequent submit and checkpoint returns
// the halting error — instead of compounding the divergence or letting
// a checkpoint capture it. Reopen (or Column.Recover) converges on the
// logged state.
//
// # Checkpoint atomicity
//
// A checkpoint spans every shard but cannot be written as one atomic
// unit, so it is committed in two phases: per-shard capture files are
// written under a fresh generation number, then a single manifest file
// naming (generation, seq) is atomically renamed into place, and only
// then do the logs rotate. Recovery loads exactly the manifest's
// generation — every shard checkpointed at the SAME seq — so a
// cross-shard update, logged only in the old value's shard, can never
// fall between a fresh checkpoint in one shard and a stale one in
// another.
//
// # Cross-shard barrier
//
// A cross-shard update (old and new owned by different shards)
// decomposes into delete+insert on two shard clocks; batching it with
// other ops would let replay reorder validation against its neighbors.
// The committer therefore isolates every cross-shard op as a singleton
// batch (its own seq), which makes per-shard replay of a seq
// order-free: within one seq, ops of different shards commute.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"selforg/internal/delta"
	"selforg/internal/obs"
	"selforg/internal/wal"
)

// Config shapes the committer.
type Config struct {
	// Dir holds the per-shard logs (shard-NNNN.wal) and checkpoints
	// (shard-NNNN.ckpt).
	Dir string
	// Fsync syncs every commit to stable storage before acking. Off,
	// acknowledged writes survive process death (SIGKILL included) but
	// not machine death.
	Fsync bool
	// GroupWindow is how long the committer keeps a batch open waiting
	// for more writers after the first one arrives. Zero means purely
	// opportunistic batching: whatever is queued when the committer
	// turns around joins the batch, nobody waits.
	GroupWindow time.Duration
	// MaxBatch caps ops per batch (default 1024).
	MaxBatch int
}

// Router maps ops onto shards — the partitioning knowledge
// internal/shard owns (shard.Router is the implementation).
type Router interface {
	// Shards returns the shard count (log file fan-out).
	Shards() int
	// ShardOf returns the index of the shard whose log should carry op:
	// the owner of the written value (for updates, of the old value),
	// shard 0 for out-of-extent ops (whose refusal the shard replays
	// deterministically).
	ShardOf(op delta.Op) int
	// CrossShard reports whether op is a cross-shard update — the
	// commit barrier.
	CrossShard(op delta.Op) bool
}

// Target is the apply side: the column the committer writes through.
type Target interface {
	// ApplyOps applies one committed batch, reporting per-op acceptance.
	// The error reports an apply-side failure (merge-back), not per-op
	// refusals.
	ApplyOps(ops []delta.Op) ([]bool, error)
	// CaptureShard returns shard i's full logical content (base plus
	// visible delta), segment by segment: the segments tile the shard's
	// range in ascending order. Called between batches, so the capture
	// is exactly the content as of the last committed seq.
	CaptureShard(i int) []wal.Segment
}

// ckptLogBytes is the checkpoint trigger: once the shard logs together
// hold this many bytes, the committer checkpoints and rotates them.
// It bounds what recovery replays. At ~31 log bytes per write it is
// one checkpoint per ~2 100 writes.
const ckptLogBytes = 64 << 10

// Recovered is the durable state found on disk at Open time: the
// per-shard checkpoint contents plus the WAL batches to replay on top,
// merged into global commit order and filtered to seq strictly above
// each shard's checkpoint.
type Recovered struct {
	// CkptSegments[i] is shard i's checkpointed content, segment by
	// segment; HasCkpt[i] reports whether a checkpoint existed (absent =
	// the shard starts from the column's initial build).
	CkptSegments [][]wal.Segment
	HasCkpt      []bool
	// Batches is the replay input: one entry per commit seq, ops
	// concatenated across shards (shard order — within a seq ops of
	// different shards commute by the cross-shard barrier).
	Batches []wal.Batch
	// LastSeq is the highest seq found (checkpoint or log); the
	// committer resumes at LastSeq+1.
	LastSeq uint64
}

// Empty reports whether no durable state existed — a fresh directory.
func (r *Recovered) Empty() bool {
	if r == nil {
		return true
	}
	if len(r.Batches) > 0 {
		return false
	}
	for _, h := range r.HasCkpt {
		if h {
			return false
		}
	}
	return true
}

// Stats is a point-in-time snapshot of the committer's lifetime
// counters (the facade's WALStats).
type Stats struct {
	// Batches counts committed groups, Records the writes inside them —
	// Records/Batches is the achieved group-commit fan-in.
	Batches int64
	Records int64
	// Appends counts per-shard log appends (≥ Batches), Fsyncs the syncs
	// (0 with Fsync off), Bytes the WAL bytes written.
	Appends int64
	Fsyncs  int64
	Bytes   int64
	// Checkpoints counts checkpoints taken: by the log-volume trigger
	// (ckptLogBytes) and forced (Checkpoint, BulkLoad's fence).
	Checkpoints int64
	// LastSeq is the last committed group's sequence number; WALSize the
	// current total log bytes on disk; Replayed the batches recovery
	// replayed into this column.
	LastSeq  uint64
	WALSize  int64
	Replayed int64
	// WriteErrors counts writes that failed inside the commit protocol
	// (append/fsync/apply failures, halted committer) rather than being
	// cleanly refused; LastError is the most recent such failure. Every
	// write path also returns these failures as errors — the counters
	// exist for monitoring, not as the only signal.
	WriteErrors int64
	LastError   string
}

// metrics is the resolved observability handle set (nil-safe, resolved
// once — the commit hot path never touches the registry).
type metrics struct {
	appends, fsyncs, bytes *obs.Counter
	batchRecords           *obs.Histogram
	ckpts                  *obs.Counter
	ckptSeq                *obs.Gauge
	replayed               *obs.Counter
}

// Committer owns the shard logs and the commit loop. Construct with
// Open, then Start once the column is built and recovered.
type Committer struct {
	cfg    Config
	router Router
	logs   []*wal.Log

	reqs chan *request
	stop chan struct{}
	done chan struct{}

	target  Target
	nextSeq uint64
	ckptGen uint64 // manifest-committed checkpoint generation

	// broken, once set, halts the committer: the on-disk logs and the
	// live column can no longer be reconciled without recovery (a
	// durably-logged batch the column rejected, or a failed batch whose
	// frames could not be rolled back). Every subsequent submit and
	// checkpoint fails with it. Only the commit loop touches it.
	broken error

	ob atomic.Pointer[metrics]

	// counters (atomics: Stats() reads them from any goroutine)
	nBatches, nRecords, nAppends, nFsyncs, nBytes, nCkpts, nReplayed atomic.Int64
	nErrs                                                            atomic.Int64
	lastSeq                                                          atomic.Uint64
	walSize                                                          atomic.Int64
	lastErr                                                          atomic.Pointer[string]

	// failAppend, when non-nil, injects an append fault for shard i —
	// test-only, exercised by the commit rollback path.
	failAppend func(shard int) error

	startOnce, closeOnce sync.Once
}

type request struct {
	op  delta.Op
	res chan result
	// ckpt marks an explicit checkpoint request (op unused).
	ckpt bool
}

type result struct {
	ok  bool
	err error
}

func logPath(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("shard-%04d.wal", i)) }

// ckptPath names shard i's checkpoint file under generation gen. The
// generation suffix lets a new checkpoint's shard files coexist with
// the active generation's until the manifest commits them — the
// atomicity scheme described at wal.WriteManifest.
func ckptPath(dir string, i int, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.%06d.ckpt", i, gen))
}

func manifestPath(dir string) string { return filepath.Join(dir, "CHECKPOINT") }

// Open creates Dir if needed, opens every shard's log (truncating torn
// tails), loads the manifest-committed checkpoint generation, and
// returns the committer plus the recovered state. The commit loop does
// NOT run yet — the caller first rebuilds its column from Recovered and
// replays Recovered.Batches, then calls Start.
func Open(cfg Config, router Router) (*Committer, *Recovered, error) {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	k := router.Shards()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	rec := &Recovered{
		CkptSegments: make([][]wal.Segment, k),
		HasCkpt:      make([]bool, k),
	}
	// The manifest decides which checkpoint generation — if any — is
	// committed. Shard files from other generations are leftovers of a
	// checkpoint that crashed before its manifest rename; they are
	// swept below and must NOT be loaded: only a manifest-committed
	// generation has every shard at the same seq.
	gen, ckptSeq, hasCkpt, err := wal.ReadManifest(manifestPath(cfg.Dir))
	if err != nil {
		return nil, nil, fmt.Errorf("durable: checkpoint manifest: %w", err)
	}
	if hasCkpt && ckptSeq > rec.LastSeq {
		rec.LastSeq = ckptSeq
	}
	logs := make([]*wal.Log, k)
	bySeq := make(map[uint64][][]delta.Op) // seq -> per-shard op slices (shard order)
	closeAll := func() {
		for _, l := range logs {
			if l != nil {
				l.Close()
			}
		}
	}
	var size int64
	for i := 0; i < k; i++ {
		if hasCkpt {
			seq, segs, ok, err := wal.ReadCheckpoint(ckptPath(cfg.Dir, i, gen))
			if err != nil {
				closeAll()
				return nil, nil, fmt.Errorf("durable: shard %d checkpoint: %w", i, err)
			}
			if !ok {
				closeAll()
				return nil, nil, fmt.Errorf("%w: manifest commits generation %d but shard %d's checkpoint is missing", wal.ErrCorrupt, gen, i)
			}
			if seq != ckptSeq {
				closeAll()
				return nil, nil, fmt.Errorf("%w: shard %d checkpoint seq %d disagrees with manifest seq %d", wal.ErrCorrupt, i, seq, ckptSeq)
			}
			rec.CkptSegments[i], rec.HasCkpt[i] = segs, true
		}
		l, batches, err := wal.Open(logPath(cfg.Dir, i))
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("durable: shard %d log: %w", i, err)
		}
		logs[i] = l
		size += l.Size()
		// Every shard filters by the SAME manifest seq (plus per-shard
		// duplicate/stale skipping), so a batch is either covered by all
		// shards' checkpoints or replayed in full — a cross-shard update,
		// logged only in the old value's shard, can never fall between a
		// fresh checkpoint in one shard and a stale one in another.
		applied := uint64(0)
		if hasCkpt {
			applied = ckptSeq
		}
		for _, b := range batches {
			if b.Seq <= applied {
				continue
			}
			applied = b.Seq
			if bySeq[b.Seq] == nil {
				bySeq[b.Seq] = make([][]delta.Op, k)
			}
			bySeq[b.Seq][i] = append(bySeq[b.Seq][i], b.Ops...)
			if b.Seq > rec.LastSeq {
				rec.LastSeq = b.Seq
			}
		}
	}
	// Sweep orphans: shard files of uncommitted generations (a crashed
	// checkpoint attempt) and stray temp files. Best effort.
	if ents, _ := filepath.Glob(filepath.Join(cfg.Dir, "shard-*.ckpt*")); ents != nil {
		active := make(map[string]bool, k)
		if hasCkpt {
			for i := 0; i < k; i++ {
				active[ckptPath(cfg.Dir, i, gen)] = true
			}
		}
		for _, p := range ents {
			if !active[p] {
				os.Remove(p)
			}
		}
	}
	seqs := make([]uint64, 0, len(bySeq))
	for s := range bySeq {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		var ops []delta.Op
		for i := 0; i < k; i++ {
			ops = append(ops, bySeq[s][i]...)
		}
		rec.Batches = append(rec.Batches, wal.Batch{Seq: s, Ops: ops})
	}
	c := &Committer{
		cfg:     cfg,
		router:  router,
		logs:    logs,
		reqs:    make(chan *request, 4*cfg.MaxBatch),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		nextSeq: rec.LastSeq + 1,
		ckptGen: gen,
	}
	c.lastSeq.Store(rec.LastSeq)
	c.walSize.Store(size)
	return c, rec, nil
}

// Observe resolves the committer's metric handles against reg and
// registers the WAL size gauge. Call at most once per registry.
func (c *Committer) Observe(reg *obs.Registry) {
	if reg == nil {
		c.ob.Store(nil)
		return
	}
	m := &metrics{
		appends:      reg.Counter("selforg_wal_appends_total"),
		fsyncs:       reg.Counter("selforg_wal_fsyncs_total"),
		bytes:        reg.Counter("selforg_wal_bytes_total"),
		batchRecords: reg.Histogram("selforg_wal_batch_records"),
		ckpts:        reg.Counter("selforg_checkpoints_total"),
		ckptSeq:      reg.Gauge("selforg_checkpoint_seq"),
		replayed:     reg.Counter("selforg_recovery_replayed_total"),
	}
	reg.GaugeFunc("selforg_wal_size_bytes", c.walSize.Load)
	c.ob.Store(m)
}

// CountReplayed accounts n replayed recovery batches (the facade calls
// it after driving Recovered.Batches through the column).
func (c *Committer) CountReplayed(n int) {
	c.nReplayed.Add(int64(n))
	if m := c.ob.Load(); m != nil {
		m.replayed.Add(int64(n))
	}
}

// Start hands the committer its apply target and launches the commit
// loop. The target must already reflect every recovered batch.
func (c *Committer) Start(t Target) {
	c.startOnce.Do(func() {
		c.target = t
		go c.loop()
	})
}

// Submit enqueues one write and blocks until its group commit is
// durable and applied, returning the op's acceptance. It must not be
// called after Close.
func (c *Committer) Submit(op delta.Op) (bool, error) {
	r := &request{op: op, res: make(chan result, 1)}
	select {
	case c.reqs <- r:
	case <-c.stop:
		return false, fmt.Errorf("durable: committer closed")
	}
	select {
	case out := <-r.res:
		return out.ok, out.err
	case <-c.done:
		// The loop exited without acking (Close raced the submit).
		select {
		case out := <-r.res:
			return out.ok, out.err
		default:
			return false, fmt.Errorf("durable: committer closed")
		}
	}
}

// Checkpoint forces a full checkpoint: every shard's content is
// captured and written, and the logs rotate. Blocks until done.
func (c *Committer) Checkpoint() error {
	r := &request{ckpt: true, res: make(chan result, 1)}
	select {
	case c.reqs <- r:
	case <-c.stop:
		return fmt.Errorf("durable: committer closed")
	}
	select {
	case out := <-r.res:
		return out.err
	case <-c.done:
		select {
		case out := <-r.res:
			return out.err
		default:
			return fmt.Errorf("durable: committer closed")
		}
	}
}

// Stats snapshots the counters.
func (c *Committer) Stats() Stats {
	st := Stats{
		Batches:     c.nBatches.Load(),
		Records:     c.nRecords.Load(),
		Appends:     c.nAppends.Load(),
		Fsyncs:      c.nFsyncs.Load(),
		Bytes:       c.nBytes.Load(),
		Checkpoints: c.nCkpts.Load(),
		LastSeq:     c.lastSeq.Load(),
		WALSize:     c.walSize.Load(),
		Replayed:    c.nReplayed.Load(),
		WriteErrors: c.nErrs.Load(),
	}
	if s := c.lastErr.Load(); s != nil {
		st.LastError = *s
	}
	return st
}

// noteErr accounts n failed writes and records the failure — the
// observable trail for Delete/Update callers whose public signature
// collapses errors into a boolean.
func (c *Committer) noteErr(err error, n int) {
	c.nErrs.Add(int64(n))
	s := err.Error()
	c.lastErr.Store(&s)
}

// Close stops the commit loop (failing writers still queued), syncs and
// closes every log. Safe to call more than once.
func (c *Committer) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.stop)
		if c.target != nil {
			<-c.done // loop drains its current batch, then exits
		}
		for _, l := range c.logs {
			if l == nil {
				continue
			}
			if serr := l.Sync(); serr != nil && err == nil {
				err = serr
			}
			if cerr := l.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	})
	return err
}

// loop is the committer goroutine: gather → log → sync → apply → ack.
func (c *Committer) loop() {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			c.failQueued()
			return
		case r := <-c.reqs:
			if r.ckpt {
				c.serveCheckpoint(r)
				continue
			}
			c.gatherAndCommit(r)
		}
	}
}

// failQueued drains and fails everything still queued at shutdown.
func (c *Committer) failQueued() {
	for {
		select {
		case r := <-c.reqs:
			r.res <- result{err: fmt.Errorf("durable: committer closed")}
		default:
			return
		}
	}
}

// gatherAndCommit builds one batch starting from first and commits it.
// Cross-shard ops and checkpoint requests close the batch: the batch
// commits first, then they run in their own turn.
func (c *Committer) gatherAndCommit(first *request) {
	if c.router.CrossShard(first.op) {
		c.commit([]*request{first})
		return
	}
	batch := []*request{first}
	var after *request // barrier op to run once the batch committed
	var yielded bool
	var timer *time.Timer
	var window <-chan time.Time
	if c.cfg.GroupWindow > 0 {
		timer = time.NewTimer(c.cfg.GroupWindow)
		window = timer.C
		defer timer.Stop()
	}
gather:
	for len(batch) < c.cfg.MaxBatch {
		select {
		case r := <-c.reqs:
			if r.ckpt || c.router.CrossShard(r.op) {
				after = r
				break gather
			}
			batch = append(batch, r)
		case <-window:
			break gather
		default:
			if window == nil {
				// Opportunistic: nothing queued. Yield once before
				// committing — on a single-CPU scheduler the committer
				// otherwise always outruns the writers and every batch
				// degenerates to a singleton; one yield lets writers
				// already runnable enqueue, at no timed wait.
				if !yielded {
					yielded = true
					runtime.Gosched()
					continue
				}
				break gather
			}
			// A window is open: block until a writer, the window, or
			// shutdown ends the gather.
			select {
			case r := <-c.reqs:
				if r.ckpt || c.router.CrossShard(r.op) {
					after = r
					break gather
				}
				batch = append(batch, r)
			case <-window:
				break gather
			case <-c.stop:
				break gather
			}
		}
	}
	c.commit(batch)
	if after != nil {
		if after.ckpt {
			c.serveCheckpoint(after)
		} else {
			c.commit([]*request{after})
		}
	}
}

// serveCheckpoint answers one explicit checkpoint request; a halted
// committer refuses rather than capturing diverged state.
func (c *Committer) serveCheckpoint(r *request) {
	if c.broken != nil {
		r.res <- result{err: c.broken}
		return
	}
	r.res <- result{err: c.checkpoint()}
}

// commit runs steps 2–5 of the protocol for one batch.
func (c *Committer) commit(batch []*request) {
	fail := func(err error) {
		c.noteErr(err, len(batch))
		for _, r := range batch {
			r.res <- result{err: err}
		}
	}
	if c.broken != nil {
		fail(c.broken)
		return
	}
	seq := c.nextSeq
	// The seq is burned no matter how this batch ends. A failed batch
	// may leave frames in some logs (the rollback below can itself
	// fail), and recovery keeps the FIRST frame it sees at a seq — so a
	// later acknowledged batch reusing the seq would be silently
	// shadowed by the nacked one. Never share a seq.
	c.nextSeq++
	ops := make([]delta.Op, len(batch))
	perShard := make(map[int][]delta.Op)
	for i, r := range batch {
		ops[i] = r.op
		s := c.router.ShardOf(r.op)
		perShard[s] = append(perShard[s], r.op)
	}
	shards := make([]int, 0, len(perShard))
	preSize := make(map[int]int64, len(perShard))
	for s := range perShard {
		shards = append(shards, s)
		preSize[s] = c.logs[s].Size()
	}
	sort.Ints(shards)
	// rollback cuts the frames this batch already wrote out of the
	// touched logs, so the nacked batch cannot replay as committed on
	// recovery. If even that fails, the log's content no longer matches
	// what was acknowledged — halt the committer; the writers' outcome
	// is indeterminate until recovery replays the logs.
	rollback := func(cause error) {
		for _, s := range shards {
			if terr := c.logs[s].TruncateTo(preSize[s]); terr != nil {
				c.broken = fmt.Errorf("durable: halted: batch seq %d failed (%v) and shard %d log rollback failed: %v; outcome indeterminate until recovery", seq, cause, s, terr)
				fail(c.broken)
				return
			}
		}
		fail(cause)
	}
	var wrote int64
	for _, s := range shards {
		var n int64
		var err error
		if c.failAppend != nil {
			err = c.failAppend(s)
		}
		if err == nil {
			n, err = c.logs[s].AppendBatch(seq, perShard[s])
		}
		if err != nil {
			rollback(fmt.Errorf("durable: append shard %d: %w", s, err))
			return
		}
		wrote += n
	}
	if c.cfg.Fsync {
		for _, s := range shards {
			if err := c.logs[s].Sync(); err != nil {
				rollback(fmt.Errorf("durable: fsync shard %d: %w", s, err))
				return
			}
			c.nFsyncs.Add(1)
		}
	}
	c.nAppends.Add(int64(len(shards)))
	c.lastSeq.Store(seq)
	c.nBytes.Add(wrote)
	c.walSize.Add(wrote)
	c.nBatches.Add(1)
	c.nRecords.Add(int64(len(ops)))
	if m := c.ob.Load(); m != nil {
		m.appends.Add(int64(len(shards)))
		m.bytes.Add(wrote)
		m.batchRecords.Observe(int64(len(ops)))
		if c.cfg.Fsync {
			m.fsyncs.Add(int64(len(shards)))
		}
	}
	res, err := c.target.ApplyOps(ops)
	if err != nil {
		// The batch is durably logged and WILL replay on recovery, but
		// the live column rejected it: memory and log have diverged.
		// Halt — committing further batches would compound the
		// divergence, and a checkpoint would capture the diverged state
		// and drop the logged batch for good. The writers
		// get the halt error (the write is durable and resurfaces after
		// recovery), not a clean refusal.
		c.broken = fmt.Errorf("durable: halted: batch seq %d durably logged but apply failed: %v; reopen or Recover to converge", seq, err)
		fail(c.broken)
		return
	}
	// Log-volume trigger: the logs reached the cap, so capture and
	// rotate them. Runs before the acks so a writer that observes its
	// ack also observes the checkpoint its batch triggered. A failed
	// checkpoint leaves the logs whole; the next batch retries.
	if c.walSize.Load() >= ckptLogBytes {
		c.checkpoint()
	}
	for i, r := range batch {
		r.res <- result{ok: i < len(res) && res[i]}
	}
}

// checkpoint captures every shard's content as of the last committed
// seq and commits it atomically across shards: every shard's capture
// is written under the NEXT checkpoint generation, the manifest — one
// atomically-renamed file naming (generation, seq) — commits them all
// at once, and only then do the logs rotate. A crash or error anywhere
// before the manifest rename leaves the previous generation fully
// active with unrotated logs (full replay, nothing lost, the new-gen
// files are swept as orphans on reopen); after the rename every shard
// is checkpointed at the SAME seq, so replay's seq filter is uniform
// and a cross-shard update — logged only in the old value's shard —
// can never fall between a fresh checkpoint in one shard and a stale
// one in another. Runs inside the commit loop, so no batch is in
// flight.
func (c *Committer) checkpoint() error {
	seq := c.nextSeq - 1
	gen := c.ckptGen + 1
	for i := range c.logs {
		if err := wal.WriteCheckpoint(ckptPath(c.cfg.Dir, i, gen), seq, c.target.CaptureShard(i)); err != nil {
			return fmt.Errorf("durable: checkpoint shard %d: %w", i, err)
		}
	}
	if err := wal.WriteManifest(manifestPath(c.cfg.Dir), gen, seq); err != nil {
		return fmt.Errorf("durable: checkpoint manifest: %w", err)
	}
	prev := c.ckptGen
	c.ckptGen = gen
	for i, l := range c.logs {
		size := l.Size()
		if err := l.Rotate(); err != nil {
			// The checkpoint is committed (replay skips seq ≤ its seq,
			// so recovery stays correct) but this log's on-disk state no
			// longer matches the committer's bookkeeping — halt rather
			// than keep appending to a file in an unknown state.
			c.broken = fmt.Errorf("durable: halted: rotate shard %d log after checkpoint: %v", i, err)
			return c.broken
		}
		c.walSize.Add(-size)
	}
	for i := range c.logs {
		os.Remove(ckptPath(c.cfg.Dir, i, prev)) // now-redundant previous generation
	}
	c.nCkpts.Add(1)
	if m := c.ob.Load(); m != nil {
		m.ckpts.Inc()
		m.ckptSeq.Set(int64(seq))
	}
	return nil
}
