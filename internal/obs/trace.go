package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one stage of a query's execution in a trace.
type Phase uint8

const (
	// PhaseRoute is planning: shard routing, cover computation, model
	// consultation — everything before data is touched.
	PhaseRoute Phase = iota
	// PhaseLockWait is time queued for the strategy's writer lock: a
	// Segmenter query's wait before planning and before applying the
	// splits of a plan that splits, a Replicator query's wait before
	// applying its adaptation.
	PhaseLockWait
	// PhaseScan is the data pass over the base segments. It is computed
	// residually at Finish (total minus the other phases), so the hot
	// scan loop itself carries no timing calls.
	PhaseScan
	// PhaseOverlay is the MVCC delta overlay on top of the base result.
	PhaseOverlay
	// PhaseAdapt is the reorganization the query applies itself: split
	// application, replica materialization, drop passes.
	PhaseAdapt
	numPhases
)

// Default ring capacities of a TraceLog and an EventLog.
const (
	DefaultTraceCap = 128
	DefaultSlowCap  = 64
	DefaultEventCap = 256
)

// Trace is one finished per-query phase trace.
type Trace struct {
	Seq      int64     `json:"seq"`
	Op       string    `json:"op"`
	Strategy string    `json:"strategy"`
	Shard    int       `json:"shard"`
	Lo       int64     `json:"lo"`
	Hi       int64     `json:"hi"`
	Start    time.Time `json:"start"`
	TotalNs  int64     `json:"total_ns"`

	RouteNs    int64 `json:"route_ns"`
	LockWaitNs int64 `json:"lock_wait_ns"`
	ScanNs     int64 `json:"scan_ns"`
	OverlayNs  int64 `json:"overlay_ns"`
	AdaptNs    int64 `json:"adapt_ns"`

	ReadBytes      int64 `json:"read_bytes"`
	DeltaReadBytes int64 `json:"delta_read_bytes"`
	Rows           int64 `json:"rows"`
	Splits         int   `json:"splits"`
	Drops          int   `json:"drops"`
	Recodes        int   `json:"recodes"`
	Slow           bool  `json:"slow,omitempty"`
}

// Span is an in-flight query trace. A nil Span is valid and free: every
// method no-ops, so instrumented paths call unconditionally and only
// sampled queries pay for timing.
type Span struct {
	t      Trace
	start  time.Time
	phases [numPhases]int64
	tl     *TraceLog
}

// Add accrues d into phase p.
func (s *Span) Add(p Phase, d time.Duration) {
	if s == nil {
		return
	}
	s.phases[p] += int64(d)
}

// StartPhase returns the clock for a phase measurement, or the zero time
// when the span is nil — so instrumented paths pay no clock call unless
// the query is actually traced.
func (s *Span) StartPhase() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// EndPhase accrues the time since t0 (a StartPhase result) into phase p.
func (s *Span) EndPhase(p Phase, t0 time.Time) {
	if s == nil {
		return
	}
	s.phases[p] += int64(time.Since(t0))
}

// Stats records the finished query's volume measures.
func (s *Span) Stats(readBytes, deltaBytes, rows int64, splits, drops, recodes int) {
	if s == nil {
		return
	}
	s.t.ReadBytes = readBytes
	s.t.DeltaReadBytes = deltaBytes
	s.t.Rows = rows
	s.t.Splits = splits
	s.t.Drops = drops
	s.t.Recodes = recodes
}

// Finish closes the span and publishes the trace. The scan phase is
// whatever of the total the explicitly timed phases do not account for,
// so the per-segment scan loop needs no clock calls of its own.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	total := time.Since(s.start)
	s.t.TotalNs = int64(total)
	s.t.RouteNs = s.phases[PhaseRoute]
	s.t.LockWaitNs = s.phases[PhaseLockWait]
	s.t.OverlayNs = s.phases[PhaseOverlay]
	s.t.AdaptNs = s.phases[PhaseAdapt]
	if scan := s.t.TotalNs - s.t.RouteNs - s.t.LockWaitNs - s.t.OverlayNs - s.t.AdaptNs + s.phases[PhaseScan]; scan > 0 {
		s.t.ScanNs = scan
	}
	s.tl.push(s.t)
}

// TraceLog collects sampled per-query phase traces into two bounded
// rings: every finished trace lands in the recent ring, and traces at
// or above the slow-query threshold additionally land in the slow ring
// (and bump the slow-query counter). Disabled, Start costs one atomic
// load per query.
type TraceLog struct {
	enabled atomic.Bool
	sample  atomic.Int64 // trace every Nth started query (≥ 1)
	tick    atomic.Int64
	slowNs  atomic.Int64
	seq     atomic.Int64
	slowCnt *Counter

	mu     sync.Mutex
	recent ring[Trace]
	slow   ring[Trace]
}

// NewTraceLog builds a trace log with the given ring capacities.
// slowCounter (may be nil) is bumped once per slow trace.
func NewTraceLog(recentCap, slowCap int, slowCounter *Counter) *TraceLog {
	tl := &TraceLog{
		recent:  newRing[Trace](recentCap),
		slow:    newRing[Trace](slowCap),
		slowCnt: slowCounter,
	}
	tl.sample.Store(1)
	tl.slowNs.Store(int64(10 * time.Millisecond))
	return tl
}

// Enable turns tracing on: every sampleNth started query is traced
// (values below 1 mean every query), and traces taking slow or longer
// are retained in the slow ring (0 keeps the previous threshold; the
// initial default is 10ms).
func (tl *TraceLog) Enable(sampleN int, slow time.Duration) {
	if sampleN < 1 {
		sampleN = 1
	}
	tl.sample.Store(int64(sampleN))
	if slow > 0 {
		tl.slowNs.Store(int64(slow))
	}
	tl.enabled.Store(true)
}

// Disable turns tracing off. Finished traces are retained.
func (tl *TraceLog) Disable() { tl.enabled.Store(false) }

// Enabled reports whether tracing is on.
func (tl *TraceLog) Enabled() bool { return tl.enabled.Load() }

// SampleN returns the current 1-in-N sampling rate.
func (tl *TraceLog) SampleN() int { return int(tl.sample.Load()) }

// SlowThreshold returns the current slow-query threshold.
func (tl *TraceLog) SlowThreshold() time.Duration {
	return time.Duration(tl.slowNs.Load())
}

// Start begins a span for one query, or returns nil when tracing is
// off or the query is sampled out. A nil TraceLog never traces.
func (tl *TraceLog) Start(op, strategy string, shard int, lo, hi int64) *Span {
	if tl == nil || !tl.enabled.Load() {
		return nil
	}
	if n := tl.sample.Load(); n > 1 && tl.tick.Add(1)%n != 0 {
		return nil
	}
	return &Span{
		t:     Trace{Op: op, Strategy: strategy, Shard: shard, Lo: lo, Hi: hi, Start: time.Now()},
		start: time.Now(),
		tl:    tl,
	}
}

// push files a finished trace.
func (tl *TraceLog) push(t Trace) {
	t.Seq = tl.seq.Add(1)
	t.Slow = t.TotalNs >= tl.slowNs.Load()
	tl.mu.Lock()
	tl.recent.push(t)
	if t.Slow {
		tl.slow.push(t)
	}
	tl.mu.Unlock()
	if t.Slow {
		tl.slowCnt.Inc()
	}
}

// Recent returns the retained traces, oldest first.
func (tl *TraceLog) Recent() []Trace {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.recent.snapshot()
}

// Slow returns the retained slow traces, oldest first.
func (tl *TraceLog) Slow() []Trace {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.slow.snapshot()
}

// ring is a fixed-capacity overwrite-oldest buffer (callers hold their
// own lock).
type ring[T any] struct {
	buf  []T
	next int
	full bool
}

func newRing[T any](capacity int) ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return ring[T]{buf: make([]T, capacity)}
}

func (r *ring[T]) push(v T) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// snapshot copies the retained values, oldest first.
func (r *ring[T]) snapshot() []T {
	if !r.full {
		return append([]T(nil), r.buf[:r.next]...)
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
