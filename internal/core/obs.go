package core

// Observability wiring. Each strategy instance resolves one strategyObs
// at SetObserver time: every metric handle — per-op counters, duration
// histograms, volume counters, adaptation-event counters — is looked up
// in the registry exactly once, so the query and write hot paths are
// pure atomic adds and never touch the registry's map or mutex. The
// handle is published through an atomic pointer; a nil handle (observer
// detached, or never attached) makes every method a no-op, keeping the
// uninstrumented cost at one atomic load per operation.
//
// Event emission and gauge callbacks are deliberately lock-free with
// respect to the registry: events go straight to the pre-resolved
// counters and the EventLog's own mutex, and every gauge callback reads
// atomics or immutable snapshots — so a scrape can never deadlock
// against a writer holding eng.Mu or the delta store's mutex.

import (
	"fmt"
	"time"

	"selforg/internal/delta"
	"selforg/internal/domain"
	"selforg/internal/obs"
	"selforg/internal/result"
)

// strategyObs is the resolved metric handle set of one strategy
// instance (one shard). All methods are nil-safe.
type strategyObs struct {
	ob    *obs.Observer
	strat string // "segm" | "repl"
	shard int

	// queries: selforg_queries_total / selforg_query_duration_ns, indexed
	// by sink (op="select", "count", "sum").
	q [3]*obs.Counter
	d [3]*obs.Histogram
	// lockWait: selforg_writer_lock_wait_ns — how long a query queued for
	// eng.Mu (engine.lock).
	lockWait *obs.Histogram
	// writes: selforg_writes_total{op=...}, indexed by delta.OpKind.
	w [3]*obs.Counter
	// volumes.
	readBytes, writeBytes, resultRows, deltaReadBytes *obs.Counter
	// adaptation events: selforg_adaptation_events_total{kind=...}.
	evSplit, evReplicate, evDrop, evRecode *obs.Counter
	evMerge, evGlue, evBulkload            *obs.Counter
	// merge-back: selforg_delta_merges_total etc.
	merges, mergedEntries *obs.Counter
	mergeDur              *obs.Histogram
}

// newStrategyObs resolves every handle against ob's registry.
func newStrategyObs(ob *obs.Observer, strat string, shard int) *strategyObs {
	reg := ob.Registry
	lbl := fmt.Sprintf(`strategy=%q,shard="%d"`, strat, shard)
	series := func(fam, extra string) string {
		if extra == "" {
			return fam + "{" + lbl + "}"
		}
		return fam + "{" + extra + "," + lbl + "}"
	}
	kind := func(k string) *obs.Counter {
		return reg.Counter(series("selforg_adaptation_events_total", fmt.Sprintf("kind=%q", k)))
	}
	so := &strategyObs{
		ob:    ob,
		strat: strat,
		shard: shard,

		lockWait: reg.Histogram(series("selforg_writer_lock_wait_ns", "")),

		w: [3]*obs.Counter{
			delta.OpInsert: reg.Counter(series("selforg_writes_total", `op="insert"`)),
			delta.OpDelete: reg.Counter(series("selforg_writes_total", `op="delete"`)),
			delta.OpUpdate: reg.Counter(series("selforg_writes_total", `op="update"`)),
		},

		readBytes:      reg.Counter(series("selforg_read_bytes_total", "")),
		writeBytes:     reg.Counter(series("selforg_write_bytes_total", "")),
		resultRows:     reg.Counter(series("selforg_result_rows_total", "")),
		deltaReadBytes: reg.Counter(series("selforg_delta_overlay_bytes_total", "")),

		evSplit:     kind("split"),
		evReplicate: kind("replicate"),
		evDrop:      kind("drop"),
		evRecode:    kind("recode"),
		evMerge:     kind("merge"),
		evGlue:      kind("glue"),
		evBulkload:  kind("bulkload"),

		merges:        reg.Counter(series("selforg_delta_merges_total", "")),
		mergedEntries: reg.Counter(series("selforg_delta_merged_entries_total", "")),
		mergeDur:      reg.Histogram(series("selforg_delta_merge_duration_ns", "")),
	}
	for _, k := range []sink{sinkRows, sinkCount, sinkSum} {
		op := fmt.Sprintf("op=%q", k)
		so.q[k] = reg.Counter(series("selforg_queries_total", op))
		so.d[k] = reg.Histogram(series("selforg_query_duration_ns", op))
	}
	return so
}

// seriesName builds one labeled series for this instance's gauge
// registrations.
func (so *strategyObs) seriesName(fam string) string {
	return fmt.Sprintf(`%s{strategy=%q,shard="%d"}`, fam, so.strat, so.shard)
}

// span starts a phase trace for one query (nil while tracing is off or
// the query is sampled out).
func (so *strategyObs) span(op string, q domain.Range) *obs.Span {
	if so == nil {
		return nil
	}
	return so.ob.Traces.Start(op, so.strat, so.shard, q.Lo, q.Hi)
}

// finishSpan copies the query's volume measures into the trace and files
// it.
func finishSpan(span *obs.Span, st *QueryStats) {
	if span == nil {
		return
	}
	span.Stats(st.ReadBytes, st.DeltaReadBytes, st.ResultCount, st.Splits, st.Drops, st.Recodes)
	span.Finish()
}

// query accounts one finished read query: op counter, duration
// histogram, volume counters.
func (so *strategyObs) query(k sink, begin time.Time, st *QueryStats) {
	if so == nil {
		return
	}
	so.q[k].Inc()
	so.d[k].Observe(int64(time.Since(begin)))
	so.volumes(st)
}

// observed wraps one read pass in the strategy's instrumentation: the
// query's trace span, its metrics, and its result count.
func observed(so *strategyObs, q domain.Range, k sink, run func(domain.Range, sink, *obs.Span) (*result.Rope, total, QueryStats)) (*result.Rope, total, QueryStats) {
	var begin time.Time
	var span *obs.Span
	if so != nil {
		begin = time.Now()
		span = so.span(k.String(), q)
	}
	rope, t, st := run(q, k, span)
	st.ResultCount = t.n
	if k == sinkRows {
		st.ResultCount = int64(rope.Len())
	}
	if so != nil {
		so.query(k, begin, &st)
		finishSpan(span, &st)
	}
	return rope, t, st
}

// writes accounts one applied write — a single op or a whole batch: the
// per-op counters advance by the accepted counts (n is indexed by
// delta.OpKind), the volume totals once (merge-back cost included).
func (so *strategyObs) writes(n [3]int, st *QueryStats) {
	if so == nil {
		return
	}
	for kind, c := range n {
		if c > 0 {
			so.w[kind].Add(int64(c))
		}
	}
	so.volumes(st)
}

// volumes adds the per-operation byte/row measures to the totals.
func (so *strategyObs) volumes(st *QueryStats) {
	so.readBytes.Add(st.ReadBytes)
	so.writeBytes.Add(st.WriteBytes)
	so.resultRows.Add(st.ResultCount)
	if st.DeltaReadBytes > 0 {
		so.deltaReadBytes.Add(st.DeltaReadBytes)
	}
}

// event bumps kind's pre-resolved counter (ev) and files the structured
// event, stamping the instance identity.
func (so *strategyObs) event(ev *obs.Counter, kind string, e obs.Event) {
	if so == nil {
		return
	}
	ev.Inc()
	e.Kind = kind
	e.Strategy = so.strat
	e.Shard = so.shard
	so.ob.Events.Add(e)
}

// recodes adds n to the recode event counter (structured events are not
// emitted per recode — encodings change with every materialization; the
// counter carries the rate, the layout endpoint the current breakdown).
func (so *strategyObs) recodes(n int) {
	if so == nil || n == 0 {
		return
	}
	so.evRecode.Add(int64(n))
}

// merged accounts one completed merge-back that drained n entries.
func (so *strategyObs) merged(n int, begin time.Time) {
	if so == nil || n == 0 {
		return
	}
	so.merges.Inc()
	so.mergedEntries.Add(int64(n))
	so.mergeDur.Observe(int64(time.Since(begin)))
	so.event(so.evMerge, "merge", obs.Event{
		After: n,
		Note:  fmt.Sprintf("entries=%d", n),
	})
}
