package selforg

// Public observability surface. The heavy lifting lives in internal/obs
// (registry, tracing, event log, HTTP handler) and in the per-strategy
// wiring of internal/core; this file exposes the knobs and the
// column-level aggregates:
//
//   - Options.Observability selects the observer and tracing. The zero
//     value attaches the process-wide default observer with tracing
//     off — counters are always cheap (pure atomic adds), so they are
//     on by default.
//   - DefaultObserver().Handler() is the HTTP surface: /metrics
//     (Prometheus text format), /debug/queries, /debug/adaptations,
//     /debug/layout and /debug/pprof. cmd/soserve mounts it.
//   - Column.LayoutInfo is the structured layout breakdown behind
//     /debug/layout.

import (
	"time"

	"selforg/internal/compress"
	"selforg/internal/core"
	"selforg/internal/domain"
	"selforg/internal/obs"
)

// Observer is the observability hub a Column reports into: a metrics
// registry (Prometheus text exposition), a per-query phase-trace ring
// and an adaptation event log, plus the Handler method serving all of
// them over HTTP. Most programs use the process-wide DefaultObserver;
// construct separate observers (obs.NewObserver via this alias is not
// exported — use NewObserver) to isolate columns from each other.
type Observer = obs.Observer

// NewObserver builds a fresh, empty observer — its registry, trace ring
// and event log are independent of every other observer's.
func NewObserver() *Observer { return obs.NewObserver() }

// DefaultObserver returns the process-wide observer that columns attach
// to by default. Metrics from all such columns aggregate here; mount
// DefaultObserver().Handler() to expose them.
func DefaultObserver() *Observer { return obs.Default }

// Observability configures a column's reporting. The zero value
// attaches the column to DefaultObserver() with counters on and tracing
// off — the always-cheap default.
type Observability struct {
	// Observer selects the observer to report into (nil = the
	// process-wide DefaultObserver()).
	Observer *Observer
	// Disable detaches the column entirely: no counters, no traces, no
	// events. The query path then pays a single atomic nil-check.
	Disable bool
	// Trace enables per-query phase tracing on the observer (route →
	// scan → overlay → adapt timings, bytes touched) into the recent-
	// and slow-query rings served at /debug/queries. Tracing is
	// per-observer state: enabling it here enables it for every column
	// sharing the observer.
	Trace bool
	// TraceSample traces one in N queries (0 or 1 = every query). Only
	// meaningful with Trace set.
	TraceSample int
	// SlowQuery sets the slow-query threshold for the dedicated slow
	// ring (0 = the 10ms default). Only meaningful with Trace set.
	SlowQuery time.Duration
}

// resolve maps the knob onto the observer to attach (nil = detached).
func (o Observability) resolve() *Observer {
	if o.Disable {
		return nil
	}
	if o.Observer != nil {
		return o.Observer
	}
	return obs.Default
}

// LayoutInfo is one shard's layout breakdown: segment and replica
// counts, storage footprint and the per-encoding physical breakdown.
// Served as JSON at the observer's /debug/layout endpoint.
type LayoutInfo struct {
	Shard    int      `json:"shard"`
	Range    Interval `json:"range"`
	Strategy string   `json:"strategy"`
	// Segments counts materialized, data-bearing segments; Virtual the
	// replica tree's virtual (unmaterialized) nodes and Depth its depth
	// (Replication only).
	Segments int `json:"segments"`
	Virtual  int `json:"virtual,omitempty"`
	Depth    int `json:"depth,omitempty"`
	// StorageBytes is the physical footprint, UncompressedBytes the
	// logical one; they differ where segments are encoded.
	StorageBytes      int64 `json:"storage_bytes"`
	UncompressedBytes int64 `json:"uncompressed_bytes"`
	// Encodings lists the nonempty per-encoding breakdown rows.
	Encodings []EncodingStats `json:"encodings,omitempty"`
}

// LayoutInfo returns the current per-shard layout breakdown (one entry
// for unsharded columns). It reads published snapshots and lock-free
// counters only, so it is safe to call concurrently with queries and
// never blocks a writer.
func (c *Column) LayoutInfo() []LayoutInfo {
	out := make([]LayoutInfo, c.strat.Shards())
	for i := range out {
		out[i] = layoutOf(i, c.strat.ShardRange(i), c.strat.Shard(i))
	}
	return out
}

// layoutOf snapshots one shard strategy into a LayoutInfo row. The
// strategy label follows the core.TreeShaped capability: tree-shaped
// shards are replica trees, flat ones segment lists.
func layoutOf(idx int, rng domain.Range, s core.DeltaStrategy) LayoutInfo {
	li := LayoutInfo{
		Shard:             idx,
		Range:             Interval{rng.Lo, rng.Hi},
		Strategy:          "segm",
		Segments:          s.SegmentCount(),
		StorageBytes:      int64(s.StorageBytes()),
		UncompressedBytes: int64(s.UncompressedBytes()),
	}
	if t, ok := s.(core.TreeShaped); ok {
		li.Strategy = "repl"
		li.Virtual = t.VirtualCount()
		li.Depth = t.TreeDepth()
	}
	es := s.EncodingStats()
	for _, e := range compress.Encodings {
		if es.Segments[e] == 0 {
			continue
		}
		li.Encodings = append(li.Encodings, EncodingStats{
			Encoding: e.String(),
			Segments: es.Segments[e],
			Bytes:    es.Bytes[e],
		})
	}
	return li
}

// observe attaches the column to its configured observer: strategy
// metric handles, optional tracing and the layout provider. Called once
// from New on the fully built column.
func (c *Column) observe() {
	ob := c.opts.Observability.resolve()
	c.strat.SetObserver(ob)
	if c.dur != nil {
		if ob != nil {
			c.dur.Observe(ob.Registry)
		} else {
			c.dur.Observe(nil)
		}
	}
	if ob == nil {
		return
	}
	if c.opts.Observability.Trace {
		ob.Traces.Enable(c.opts.Observability.TraceSample, c.opts.Observability.SlowQuery)
	}
	// Last column wins the layout endpoint, mirroring the registry's
	// gauge replace semantics: a rebuilt column takes over from its
	// predecessor on a shared observer.
	ob.SetLayoutProvider(func() any { return c.LayoutInfo() })
}

// Close stops the column's background work, the durability committer
// (writers still queued are failed; committed groups are already on
// disk). In-memory columns have no background work and need no Close;
// calling it anyway — or twice — is harmless.
func (c *Column) Close() {
	if c.dur != nil {
		c.dur.Close()
	}
}
