package selforg

// Public durability surface. The machinery lives in internal/wal (CRC-
// framed per-shard logs, atomic checkpoint files) and internal/durable
// (the group-commit committer); this file adapts them to the column:
//
//   - Options.Durability selects the log directory, fsync policy and
//     group-commit window. The zero value keeps the purely in-memory
//     column — the pre-durability write path, byte for byte.
//   - With durability on, the one write body (Column.write, selforg.go)
//     submits each delta.Op to the committer: concurrent writers ride
//     one WAL append, one fsync, one MVCC version and one snapshot
//     publication per shard per group, and are acknowledged only once
//     the group is logged and applied. The committer routes ops to
//     shard logs with shard.Router — the routing the column itself
//     applies them with — and applies groups through durTarget.
//   - New over a non-empty directory recovers: each shard rebuilds from
//     its last checkpoint (or the initial load) and replays its log;
//     Column.Recover does the same in place. A checkpoint records each
//     shard's segments, so a segmented shard recovers its layout. The
//     committer checkpoints and truncates the logs once they together
//     hold 64 KB, so recovery replays at most that much;
//     Column.Checkpoint forces one.
//
// Bulk loads are not logged as point writes; instead BulkLoad on a
// durable column checkpoint-fences itself — it returns only after a
// full checkpoint captured the loaded content — so an acked bulk load
// survives a crash without a WAL record.

import (
	"fmt"
	"time"

	"selforg/internal/compress"
	"selforg/internal/delta"
	"selforg/internal/domain"
	"selforg/internal/durable"
	"selforg/internal/shard"
	"selforg/internal/wal"
)

// Durability configures the write-ahead-log subsystem. Leaving Dir
// empty (the default) disables it entirely.
type Durability struct {
	// Dir is the log directory: per-shard WALs (shard-NNNN.wal) and
	// checkpoints (shard-NNNN.ckpt). Reopening a column over a
	// non-empty directory recovers its committed writes; the caller
	// must pass the same initial values and shard count as the
	// original build (shards without a checkpoint rebuild from them).
	Dir string
	// Fsync syncs every group commit to stable storage before any
	// writer in it is acknowledged. Off (the default), acknowledged
	// writes still survive process death — SIGKILL included, the
	// appends reached the kernel first — but not machine death.
	Fsync bool
	// GroupWindow is how long the committer holds a batch open for more
	// writers after the first arrives. Zero (the default) batches
	// opportunistically: whatever is queued when the committer turns
	// around joins the group, nobody waits.
	GroupWindow time.Duration
	// MaxBatch caps writes per committed group (default 1024). 1
	// degenerates to one log append, one version and one snapshot
	// publication per write — the pre-group-commit write amplification,
	// kept as a benchmark baseline.
	MaxBatch int
}

// durTarget is the committer's apply side: committed batches go through
// the strategy's batch write path and their costs land in Totals.
type durTarget struct{ c *Column }

func (t *durTarget) ApplyOps(ops []delta.Op) ([]bool, error) {
	res, qs, err := t.c.strat.ApplyOps(ops)
	if err != nil {
		return nil, err
	}
	t.c.acct.add(qs)
	return res, nil
}

// CaptureShard captures shard i's full logical content (base plus
// visible delta), segment by segment, through a pinned MVCC view — no
// adaptation, no stats. The committer calls it between batches, so no
// cross-shard update holds the pin sweep's lock.
func (t *durTarget) CaptureShard(i int) []wal.Segment {
	return t.c.strat.Pin().Capture(i)
}

// newDurable is New's durable back half: the column keeps a copy of the
// initial load, so Recover (and a reopened New) can rebuild shards that
// have no checkpoint yet, and opens over values.
func newDurable(rng domain.Range, values []domain.Value, o Options) (*Column, error) {
	col := &Column{extent: rng, opts: o, initVals: append([]domain.Value(nil), values...)}
	if err := col.open(values); err != nil {
		return nil, err
	}
	return col, nil
}

func durCfg(o Options) durable.Config {
	return durable.Config{
		Dir:         o.Durability.Dir,
		Fsync:       o.Durability.Fsync,
		GroupWindow: o.Durability.GroupWindow,
		MaxBatch:    o.Durability.MaxBatch,
	}
}

// open is the one durable open path, behind New and Recover: open the
// logs, rebuild the strategy over checkpoint-or-initial content (vals
// is consumed), replay the recovered batches through it in commit order
// — after which it reflects every committed write — then start the
// commit loop. A replay runs over unencoded shards, which are encoded
// once it is done: encoding first would encode every segment a replayed
// merge-back touches twice, and a replayed delete or update probes a
// raw segment faster than an encoded one.
func (c *Column) open(vals []domain.Value) error {
	dur, rec, err := durable.Open(durCfg(c.opts), shard.NewRouter(c.extent, c.opts.Shards))
	if err != nil {
		return fmt.Errorf("selforg: durability: %w", err)
	}
	spec := c.opts.spec()
	mode := spec.Compression
	if len(rec.Batches) > 0 {
		spec.Compression = compress.Off
	}
	strat, err := shard.Build(spec, c.extent, vals, rec)
	if err != nil {
		dur.Close()
		return fmt.Errorf("selforg: %w", err)
	}
	c.strat, c.dur = strat, dur
	c.observe()
	for _, b := range rec.Batches {
		_, qs, err := strat.ApplyOps(b.Ops)
		if err != nil {
			dur.Close()
			return fmt.Errorf("selforg: recovery replay seq %d: %w", b.Seq, err)
		}
		c.acct.add(qs)
	}
	if mode != spec.Compression {
		strat.SetCompression(mode)
	}
	dur.CountReplayed(len(rec.Batches))
	dur.Start(&durTarget{c})
	return nil
}

// Checkpoint forces a full durability checkpoint: every shard's logical
// content is captured segment by segment and atomically written, and
// the logs truncate. Otherwise the committer checkpoints once the logs
// together hold 64 KB; merge-backs do not checkpoint. Returns an error
// when durability is not enabled.
func (c *Column) Checkpoint() error {
	if c.dur == nil {
		return fmt.Errorf("selforg: durability is not enabled")
	}
	return c.dur.Checkpoint()
}

// Recover simulates a crash restart in place: the committer is closed,
// the strategy stack is rebuilt from the on-disk checkpoints (or the
// initial load) and the logs are replayed, exactly as New does over an
// existing directory. Pending writes still queued are failed, not lost
// — unacknowledged writes carry no durability promise. Recover must not
// run concurrently with queries or writes on the same column.
func (c *Column) Recover() error {
	if c.dur == nil {
		return fmt.Errorf("selforg: durability is not enabled")
	}
	c.dur.Close()
	return c.open(append([]domain.Value(nil), c.initVals...))
}

// WALStats is the committer's lifetime counters (durable.Stats).
type WALStats = durable.Stats

// WALStats returns the durability counters; ok is false (and the stats
// zero) when durability is not enabled.
func (c *Column) WALStats() (WALStats, bool) {
	if c.dur == nil {
		return WALStats{}, false
	}
	return c.dur.Stats(), true
}

// Durable reports whether the column runs with durability enabled.
func (c *Column) Durable() bool { return c.dur != nil }
