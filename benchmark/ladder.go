package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"selforg"
	"selforg/internal/compress"
	"selforg/internal/core"
	"selforg/internal/delta"
	"selforg/internal/domain"
	"selforg/internal/model"
	"selforg/internal/plancache"
	"selforg/internal/result"
	"selforg/internal/server"
	"selforg/internal/shard"
	"selforg/internal/sql"
	"selforg/internal/wal"
)

// The traced run. One client replays a fixed sample of the workload's
// statements at every rung of the layer ladder — codec kernel, bare
// strategy, shard router, facade, Server.Exec, HTTP handler, loopback
// round trip — each rung on identically built state, and every call is a
// span recorded from here, around the layer's public function. A rung's
// self time is its time per call (rungStats.us) minus that of the rung
// below, except where a span really nests in another (the served handler
// inside the round trip), where the recorder's own self-time rule applies.

// layerResult is the traced run of one workload.
type layerResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	Notes     map[string]float64 `json:"notes,omitempty"`
}

// rungStats keeps one rung's call times in microseconds, by statement
// class.
type rungStats struct {
	d [numClasses][]float64
}

func (r *rungStats) add(c class, d time.Duration) { r.d[c] = append(r.d[c], float64(d)/1e3) }

// us returns the rung's time per call in microseconds over the given
// classes (all classes when none is given): each class's median call,
// weighted by the class's share of the calls; 0 when the rung saw none.
// A mean would be simpler, but a single garbage collection or a late
// split inside one call out of a thousand moves a mean by tens of
// percent, and the rungs' differences by more than they are.
func (r *rungStats) us(classes ...class) float64 {
	if len(classes) == 0 {
		for c := class(0); c < numClasses; c++ {
			classes = append(classes, c)
		}
	}
	sum, n := 0.0, 0
	for _, c := range classes {
		sum += median(r.d[c]) * float64(len(r.d[c]))
		n += len(r.d[c])
	}
	return ratio(sum, float64(n))
}

// rung replays statement i of the sample at one level of the ladder.
type rung func(i int, st stmt)

// interleave replays stmts through the rungs a block of 25 statements at
// a time, taking turns. The sandbox's speed drifts by tens of percent
// over seconds; in this order a slow second falls on every rung alike, so
// the differences between rungs — the self times — stay meaningful.
// Within a block a rung still runs back to back, as it would alone.
//
// With stagger each rung starts at a block of its own and wraps around, so
// that no rung finds in the caches the data a rung before it has just
// read for the same statements. Rungs that share one column need that;
// rungs whose state the statements change must see them in order, have a
// column each anyway, and run without.
func interleave(stmts []stmt, stagger bool, rungs ...rung) {
	const block = 25
	blocks := (len(stmts) + block - 1) / block
	for b := 0; b < blocks; b++ {
		for k, r := range rungs {
			at := b
			if stagger {
				at = (b + k*blocks/len(rungs)) % blocks
			}
			hi := (at + 1) * block
			if hi > len(stmts) {
				hi = len(stmts)
			}
			for i := at * block; i < hi; i++ {
				r(i, stmts[i])
			}
		}
	}
}

type ladder struct {
	w      *workloadDef
	sc     *scale
	seed   int64
	outDir string
	rec    *recorder
	base   []int64
	orc    *oracle
	chk    checker // for the sample's reads, on a column that holds the base
	reads  []stmt
	writes []stmt
	res    *layerResult
}

func (l *ladder) set(name string, v float64) {
	m, ok := l.res.Metrics[name]
	if !ok {
		panic("ladder: undeclared metric " + name)
	}
	l.res.Metrics[name] = metric{v, m.Unit}
}

func (l *ladder) get(name string) float64 { return l.res.Metrics[name].Value }

func (l *ladder) problem(format string, args ...any) {
	l.res.Failed++
	if len(l.res.Problems) < 8 {
		l.res.Problems = append(l.res.Problems, fmt.Sprintf(format, args...))
	}
}

// call times fn as one span of statement i and books it under the
// statement's class. fn returns the counts to attach to the span.
func (l *ladder) call(rs *rungStats, name string, i int, s stmt, fn func() map[string]int64) {
	id := l.rec.begin(name, 0, int64(i+1))
	t0 := time.Now()
	counts := fn()
	d := time.Since(t0)
	l.rec.end(id, counts)
	rs.add(s.class, d)
}

// opName names a span after the layer and the call made into it.
func opName(prefix string, s stmt) string {
	switch {
	case s.class == clsCount:
		return prefix + ".count"
	case s.class.isWrite():
		return prefix + "." + s.class.String()
	default:
		return prefix + ".select"
	}
}

func statCounts(rows int64, st core.QueryStats) map[string]int64 {
	return map[string]int64{"rows": rows, "read_bytes": st.ReadBytes, "write_bytes": st.WriteBytes,
		"splits": int64(st.Splits), "recodes": int64(st.Recodes), "delta_read_bytes": st.DeltaReadBytes}
}

func facadeCounts(rows int64, st selforg.Stats) map[string]int64 {
	return map[string]int64{"rows": rows, "read_bytes": st.ReadBytes, "write_bytes": st.WriteBytes,
		"splits": int64(st.Splits), "recodes": int64(st.Recodes), "delta_read_bytes": st.DeltaReadBytes}
}

// runLadder is the traced run of one workload.
func runLadder(w *workloadDef, sc *scale, seed int64, outDir string) (*layerResult, error) {
	n := w.sample(sc)
	l := &ladder{w: w, sc: sc, seed: seed, outDir: outDir,
		rec:  newRecorder(16 * n),
		base: w.values(seed, w.n(sc)),
		res:  &layerResult{Workload: w.name, Seed: seed, Metrics: map[string]metric{}, Notes: map[string]float64{}},
	}
	l.orc = newOracle(l.base)
	l.chk = &readChecker{base: l.orc, maxRows: w.maxRows}
	for _, m := range perLayer {
		l.res.Metrics[m.Name] = metric{0, m.Unit}
	}
	tsc := *sc
	if w.perRound {
		tsc.perPhase = n / 4 // the sample is one pass over the four phases
	}
	g := w.newGen(w, &tsc, seed, "trace", 0)
	for i := 0; i < n; i++ {
		if s := g.next(); s.class.isWrite() {
			l.writes = append(l.writes, s)
		} else {
			l.reads = append(l.reads, s)
		}
	}
	if w.options.Compression != selforg.CompressionOff {
		l.kernels()
	}
	if err := l.rungs(); err != nil {
		return nil, err
	}
	if err := l.rec.writeJSONL(filepath.Join(outDir, "trace-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	l.res.Correct = l.res.Failed == 0
	return l.res, nil
}

// kernels times the codec range kernels on inputs shaped like the
// workload's segments: the column's values of one value window, in
// arrival order, encoded each way; the range asked for covers the middle
// half of the window, as a query covers part of a boundary segment.
func (l *ladder) kernels() {
	dom := l.w.dom()
	const inputs = 8
	width := int64(float64(dom.Width()) * float64(l.sc.kernelVals) / float64(len(l.base)))
	if width > dom.Width()/inputs {
		width = dom.Width() / inputs
	}
	if width < 4 {
		width = 4
	}
	var count, sel, bytes, nvals [compress.NumEncodings]float64
	var dst []int64
	for k := 0; k < inputs; k++ {
		lo := dom.Lo + int64(k)*(dom.Width()/inputs)
		hi := lo + width - 1
		var vals []int64
		for _, v := range l.base {
			if v >= lo && v <= hi {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		qlo, qhi := lo+width/4, hi-width/4
		want, _ := l.orc.countSum(qlo, qhi)
		for _, e := range compress.Encodings {
			vec := compress.Encode(append([]int64(nil), vals...), e, elemSize)
			// Repeat each kernel until it has run for 2 ms: one call on a
			// small input is too short to time.
			id := l.rec.begin("compress."+e.String()+".count", 0, 0)
			reps, t0 := 0, time.Now()
			var n int64
			for ; reps < 3 || time.Since(t0) < 2*time.Millisecond; reps++ {
				n = vec.CountRange(qlo, qhi)
			}
			count[e] += float64(time.Since(t0)) / float64(reps)
			l.rec.end(id, map[string]int64{"vals": int64(len(vals)), "matched": n, "reps": int64(reps)})

			id = l.rec.begin("compress."+e.String()+".select", 0, 0)
			reps, t0 = 0, time.Now()
			for ; reps < 3 || time.Since(t0) < 2*time.Millisecond; reps++ {
				dst = vec.SelectRange(qlo, qhi, dst[:0])
			}
			sel[e] += float64(time.Since(t0)) / float64(reps)
			l.rec.end(id, map[string]int64{"vals": int64(len(vals)), "matched": int64(len(dst)), "reps": int64(reps)})
			if n != want || int64(len(dst)) != want {
				l.problem("compress %v: CountRange %d, SelectRange %d, model %d", e, n, len(dst), want)
			}
			bytes[e] += float64(vec.StoredBytes())
			nvals[e] += float64(len(vals))
		}
	}
	for _, e := range compress.Encodings {
		l.set("compress."+e.String()+".count_ns_per_val", ratio(count[e], nvals[e]))
		l.set("compress."+e.String()+".select_ns_per_val", ratio(sel[e], nvals[e]))
		l.set("compress."+e.String()+".bytes_per_val", ratio(bytes[e], nvals[e]))
	}
}

// buildBare builds the strategy stack the facade would build for the
// workload's options, without the facade: one core strategy, or a shard
// router over several.
func buildBare(w *workloadDef, vals []int64, shards int) (core.DeltaStrategy, error) {
	o := w.options
	amin, amax := o.APMMin, o.APMMax
	if amin == 0 {
		amin, amax = 3<<10, 12<<10 // the facade's defaults
	}
	dmax := o.DeltaMaxBytes
	if dmax == 0 {
		dmax = 64 << 10
	}
	mode := compress.Off
	if o.Compression == selforg.CompressionAuto {
		mode = compress.Auto
	}
	one := func(_ int, rng domain.Range, vals []domain.Value) core.DeltaStrategy {
		if o.Strategy == selforg.Replication {
			r := core.NewReplicator(rng, vals, elemSize, model.NewAPM(amin, amax), nil)
			if mode != compress.Off {
				r.SetCompression(mode)
			}
			r.SetParallelism(o.Parallelism)
			return r
		}
		s := core.NewSegmenter(rng, vals, elemSize, model.NewAPM(amin, amax), nil)
		if mode != compress.Off {
			s.SetCompression(mode)
		}
		s.SetParallelism(o.Parallelism)
		return s
	}
	var strat core.DeltaStrategy
	if shards > 1 {
		sc, err := shard.New(w.dom(), vals, shards, one)
		if err != nil {
			return nil, err
		}
		sc.SetParallelism(o.Parallelism)
		strat = sc
	} else {
		strat = one(0, w.dom(), vals)
	}
	strat.SetDeltaPolicy(dmax, 0.10)
	return strat, nil
}

// selectRope is the bare strategies' read call.
func selectRope(s core.DeltaStrategy, q domain.Range) (*result.Rope, core.QueryStats) {
	if rs, ok := s.(core.RopeSelector); ok {
		return rs.SelectRope(q)
	}
	vals, st := s.Select(q)
	return result.FromOwned(vals), st
}

// read runs one read statement on a bare strategy.
func read(s core.DeltaStrategy, st stmt) (n int64, rope *result.Rope, qs core.QueryStats) {
	q := domain.Range{Lo: st.a, Hi: st.b}
	if st.class == clsCount {
		n, qs = s.Count(q)
		return n, nil, qs
	}
	rope, qs = selectRope(s, q)
	return int64(rope.Len()), rope, qs
}

// prepareBare brings a bare strategy to the state the served column is
// in when its window opens: converged by the same warmUp (unless the
// workload measures the cold column), then the sample itself replayed
// once, so that the few reorganizations its fresh constants still cause
// happen outside the measurement, on every rung's state alike. It
// returns warmUp's count.
func (l *ladder) prepareBare(s core.DeltaStrategy) int {
	if l.w.perRound {
		return 0
	}
	untilQuiet, _ := warmUp(l.w, l.sc, l.seed, func(st stmt) (int, error) {
		_, _, qs := read(s, st)
		return qs.Splits + qs.Drops + qs.Recodes, nil
	})
	for _, st := range l.reads {
		read(s, st)
	}
	return untilQuiet
}

// strategyTotals is what a strategy rung counted besides time.
type strategyTotals struct {
	stats                        core.QueryStats
	chunks, flattenNs            float64
	selectRows, selectStatements float64
}

// strategyRung replays reads on a bare strategy and checks every answer,
// so each rung proves it ran the same statements.
func (l *ladder) strategyRung(prefix string, s core.DeltaStrategy) (rung, *rungStats, *strategyTotals) {
	rs, tot := &rungStats{}, &strategyTotals{}
	return func(i int, st stmt) {
		var got int64
		var rope *result.Rope
		l.call(rs, opName(prefix, st), i, st, func() map[string]int64 {
			var qs core.QueryStats
			got, rope, qs = read(s, st)
			tot.stats.Add(qs)
			return statCounts(int64(rope.Len()), qs)
		})
		if want, _ := l.orc.countSum(st.a, st.b); got != want {
			l.problem("%s %s: %d, model %d", prefix, st.sql(), got, want)
		}
		if st.class == clsSelect {
			tot.selectStatements++
			tot.chunks += float64(rope.NumChunks())
			tot.selectRows += float64(rope.Len())
			t0 := time.Now()
			rope.Flatten()
			tot.flattenNs += float64(time.Since(t0))
		}
	}, rs, tot
}

// setStrategyMetrics reports the bare-strategy rung.
func (l *ladder) setStrategyMetrics(rs *rungStats, tot *strategyTotals) {
	name := "segmenter"
	if l.w.options.Strategy == selforg.Replication {
		name = "replicator"
	}
	nq := float64(len(l.reads))
	l.set("core."+name+".select_us", rs.us(clsSelect, clsSum))
	l.set("core."+name+".count_us", rs.us(clsCount))
	l.set("core.select_ns_per_row", perRow(rs, tot.selectRows))
	l.set("core.scan_amp", ratio(float64(tot.stats.ReadBytes)/elemSize, float64(tot.stats.ResultCount)))
	l.set("core.read_bytes_per_q", ratio(float64(tot.stats.ReadBytes), nq))
	l.set("core.write_bytes_per_q", ratio(float64(tot.stats.WriteBytes), nq))
	l.set("result.chunks_per_q", ratio(tot.chunks, tot.selectStatements))
	l.set("result.flatten_ns_per_row", ratio(tot.flattenNs, tot.selectRows))
}

// perRow is a rung's SELECT time per row in nanoseconds: the median
// SELECT call over the mean rows of a SELECT.
func perRow(rs *rungStats, selectRows float64) float64 {
	return ratio(rs.us(clsSelect)*1e3, ratio(selectRows, float64(len(rs.d[clsSelect]))))
}

// facadeTotals is what the facade rung counted besides time.
type facadeTotals struct {
	stats   selforg.Stats
	allocB  float64
	quiet   int
	quietAt int // statements before 50 in a row reorganized nothing; -1 = never
}

// facadeRung replays reads on the facade column.
func (l *ladder) facadeRung(col *selforg.Column) (rung, *rungStats, *facadeTotals) {
	rs, tot := &rungStats{}, &facadeTotals{quietAt: -1}
	return func(i int, st stmt) {
		var fs selforg.Stats
		var n, sum int64
		a0 := heapAllocs()
		l.call(rs, opName("facade", st), i, st, func() map[string]int64 {
			if st.class == clsCount {
				n, fs = col.Count(st.a, st.b)
				return facadeCounts(0, fs)
			}
			var r *selforg.Rows
			r, fs = col.SelectRows(st.a, st.b)
			n = int64(r.Len())
			if st.class == clsSum { // what Server.run does for SUM
				r.Chunks(func(vals []int64) bool {
					for _, v := range vals {
						sum += v
					}
					return true
				})
			}
			return facadeCounts(n, fs)
		})
		tot.allocB += heapAllocs() - a0
		wantN, wantSum := l.orc.countSum(st.a, st.b)
		if n != wantN || (st.class == clsSum && sum != wantSum) {
			l.problem("facade %s: %d sum %d, model %d sum %d", st.sql(), n, sum, wantN, wantSum)
		}
		tot.stats.Add(fs)
		if fs.Splits+fs.Drops+fs.Recodes != 0 {
			tot.quiet = 0
		} else if tot.quiet++; tot.quiet == 50 && tot.quietAt < 0 {
			tot.quietAt = i + 1 - 50
		}
	}, rs, tot
}

// heapAllocs reads the process's cumulative heap allocation in bytes.
func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// execTotals is what the Exec rung counted besides time.
type execTotals struct {
	allocB, selectRows float64
}

// execRung replays statements through Server.Exec, then encodes each
// answer the way the HTTP layer does (indented JSON) into io.Discard,
// then checks it. Only the first two are timed.
func (l *ladder) execRung(srv *server.Server, chk checker) (r rung, exec, enc *rungStats, tot *execTotals) {
	exec, enc, tot = &rungStats{}, &rungStats{}, &execTotals{}
	var rep reply
	return func(i int, st stmt) {
		text := st.sql()
		var res *server.Result
		var err error
		a0 := heapAllocs()
		l.call(exec, "server.exec", i, st, func() map[string]int64 {
			if res, err = srv.Exec("", text); err != nil {
				return nil
			}
			return facadeCounts(int64(res.Rows.Len()), res.Stats)
		})
		tot.allocB += heapAllocs() - a0
		if err != nil {
			l.problem("server.exec %s: %v", text, err)
			return
		}
		l.call(enc, "server.encode", i, st, func() map[string]int64 {
			e := json.NewEncoder(io.Discard)
			e.SetIndent("", "  ")
			err = e.Encode(res)
			return map[string]int64{"rows": int64(res.Rows.Len())}
		})
		if st.class == clsSelect {
			tot.selectRows += float64(res.Rows.Len())
		}
		b, merr := json.Marshal(res)
		if err == nil && merr == nil {
			err = parseReply(b, &rep)
		}
		if err != nil || merr != nil {
			l.problem("server.exec %s: encode %v %v", text, err, merr)
		} else if msg := chk.check(st, &rep); msg != "" {
			l.problem("server.exec: %s", msg)
		}
	}, exec, enc, tot
}

// handlerRung replays statements through the handler on a recorder:
// everything the HTTP layer does except the network and net/http's own
// server loop.
func (l *ladder) handlerRung(h http.Handler, chk checker) (rung, *rungStats) {
	rs := &rungStats{}
	var rep reply
	return func(i int, st stmt) {
		var rw *httptest.ResponseRecorder
		l.call(rs, "http.handler", i, st, func() map[string]int64 {
			req := httptest.NewRequest(http.MethodPost, "/sql", strings.NewReader(st.sql()))
			rw = httptest.NewRecorder()
			h.ServeHTTP(rw, req)
			return map[string]int64{"bytes": int64(rw.Body.Len())}
		})
		if rw.Code != http.StatusOK {
			l.problem("http.handler %s: HTTP %d", st.sql(), rw.Code)
		} else if err := parseReply(rw.Body.Bytes(), &rep); err != nil {
			l.problem("http.handler %s: %v", st.sql(), err)
		} else if msg := chk.check(st, &rep); msg != "" {
			l.problem("http.handler: %s", msg)
		}
	}, rs
}

// traceMiddleware records the served handler's span inside the round
// trip's: the client sends its open span's id, and the middleware opens a
// child. Requests without the header pass straight through.
func (l *ladder) traceMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		hdr := r.Header.Get(requestHeader)
		if hdr == "" {
			next.ServeHTTP(rw, r)
			return
		}
		parent, request := int64(0), int64(0)
		if i := strings.IndexByte(hdr, '/'); i > 0 {
			parent, _ = strconv.ParseInt(hdr[:i], 10, 64)
			request, _ = strconv.ParseInt(hdr[i+1:], 10, 64)
		}
		id := l.rec.begin("http.handler.served", parent, request)
		next.ServeHTTP(rw, r)
		l.rec.end(id, nil)
	})
}

// httpTotals accumulates the round-trip rungs.
type httpTotals struct {
	off, on rungStats // waits with the recorder off / on
	tally   clientTally
}

// httpRung sends statements over the loopback connection, traced or not.
func (l *ladder) httpRung(c *sqlClient, chk checker, traced bool, t *httpTotals) rung {
	var rep reply
	return func(i int, st stmt) {
		var id int64
		c.reqID = ""
		if traced {
			id = l.rec.begin("http.roundtrip", 0, int64(i+1))
			c.reqID = strconv.FormatInt(id, 10) + "/" + strconv.Itoa(i+1)
		}
		t0 := time.Now()
		wait, status, fail := c.exchange(st, chk, &rep)
		if traced {
			l.rec.end(id, map[string]int64{"rows": int64(rep.nrows), "bytes": int64(len(c.body))})
		}
		t.tally.self += time.Since(t0) - wait
		t.tally.attempted++
		if status == http.StatusTooManyRequests {
			t.tally.shed++
		}
		switch {
		case fail != "":
			l.problem("http.roundtrip: %s", fail)
		case traced:
			t.on.add(st.class, wait)
		default:
			t.off.add(st.class, wait)
		}
	}
}

// setHTTPMetrics reports the round-trip rungs. The untraced round trips
// give http.roundtrip_us; the difference of the two medians is the
// tracing overhead; the traced ones nest the served handler's span, from
// which http.self_us — the round trip outside the handler — follows by
// the recorder's self-time rule.
func (l *ladder) setHTTPMetrics(t *httpTotals) {
	l.res.Attempted += t.tally.attempted
	l.set("http.roundtrip_us", t.off.us())
	l.set("bench.trace_overhead_share", ratio(t.on.us()-t.off.us(), t.off.us()))
	l.set("bench.client_self_us", ratio(float64(t.tally.self)/1e3, float64(t.tally.attempted)))
	l.set("server.shed_share", ratio(float64(t.tally.shed), float64(t.tally.attempted)))
	spans := l.rec.since(0)
	self := selfTimes(spans)
	var outside, served rungStats
	for _, s := range spans {
		switch s.Name {
		case "http.roundtrip":
			outside.add(l.reads[s.Request-1].class, time.Duration(self[s.ID]))
		case "http.handler.served":
			served.add(l.reads[s.Request-1].class, time.Duration(s.dur()))
		}
	}
	l.set("http.self_us", outside.us())
	l.res.Notes["http.handler_served_us"] = served.us()
}

// frontEnd times the statement front end on its own: the lexical
// normalization every statement pays, the plan-cache lookup, and a cold
// compile of each shape.
func (l *ladder) frontEnd(srv *server.Server, stmts []stmt) {
	rs := &rungStats{}
	keys := make([]string, 0, len(stmts))
	shapes := map[string]string{} // fingerprint -> one statement of the shape
	for i, st := range stmts {
		text := st.sql()
		l.call(rs, "sql.normalize", i, st, func() map[string]int64 {
			n, err := sql.Normalize(text)
			if err != nil {
				l.problem("sql.normalize %s: %v", text, err)
				return nil
			}
			keys = append(keys, n.Fingerprint)
			if !st.class.isWrite() {
				shapes[n.Fingerprint] = text
			}
			return nil
		})
	}
	l.set("sql.normalize_us", rs.us())

	cache := plancache.New(0)
	for _, k := range keys {
		cache.Put(k, k, cache.Epoch())
	}
	const reps = 20
	id := l.rec.begin("plancache.get", 0, 0)
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, k := range keys {
			if _, ok := cache.Get(k); !ok {
				l.problem("plancache: %q missing", k)
			}
		}
	}
	l.set("plancache.get_ns", ratio(float64(time.Since(t0)), float64(reps*len(keys))))
	l.rec.end(id, map[string]int64{"gets": int64(reps * len(keys))})

	var cold []float64
	for r := 0; r < 10; r++ {
		for _, text := range shapes {
			srv.InvalidatePlans()
			id := l.rec.begin("server.compile_cold", 0, 0)
			t0 := time.Now()
			_, err := srv.Explain(text)
			cold = append(cold, float64(time.Since(t0))/1e3)
			l.rec.end(id, nil)
			if err != nil {
				l.problem("server.compile_cold %s: %v", text, err)
			}
		}
	}
	l.set("server.compile_cold_us", mean(cold))
}

// rungs builds every rung's state, replays the reads through all rungs
// interleaved, reports them, and then runs the write side.
//
// A workload measured in its converged state needs one served instance:
// reads leave that state alone, so the facade, Exec, handler and round
// trip rungs share it, and the bare strategies converge copies of their
// own the same way. adapt_cold measures the reorganization itself, so
// there every rung replays the sample on a fresh column of its own.
func (l *ladder) rungs() error {
	w := l.w
	bare, err := buildBare(w, append([]int64(nil), l.base...), 1)
	if err != nil {
		return err
	}
	l.set("core.converge_queries", float64(l.prepareBare(bare)))
	coreRung, coreRS, coreTot := l.strategyRung("core", bare)
	all := []rung{coreRung}
	below := coreRS

	var sharded core.DeltaStrategy
	var shRS *rungStats
	if k := w.options.Shards; k > 1 {
		if sharded, err = buildBare(w, append([]int64(nil), l.base...), k); err != nil {
			return err
		}
		l.prepareBare(sharded)
		var shRung rung
		shRung, shRS, _ = l.strategyRung("shard", sharded)
		all = append(all, shRung)
		below = shRS
	}

	// The served instances. serve(i) returns the one rung i uses: always
	// the first when the state is shared, one each when it is not.
	var instances []*instance
	defer func() {
		for _, in := range instances {
			in.close()
		}
	}()
	serve := func(i int) (*instance, error) {
		if !w.perRound && len(instances) > 0 {
			return instances[0], nil
		}
		dir, err := walDir(w, l.outDir, l.seed, 10+i)
		if err != nil {
			return nil, err
		}
		in, err := startInstance(w, l.sc, l.seed, dir, l.traceMiddleware)
		if err != nil {
			return nil, err
		}
		instances = append(instances, in)
		if !w.perRound {
			for _, st := range l.reads { // as prepareBare does
				if st.class == clsCount {
					in.col.Count(st.a, st.b)
				} else {
					in.col.SelectRows(st.a, st.b)
				}
			}
		}
		return in, nil
	}
	var ins [5]*instance
	for i := range ins {
		if ins[i], err = serve(i); err != nil {
			return err
		}
	}
	facRung, facRS, facTot := l.facadeRung(ins[0].col)
	execRung, execRS, encRS, execTot := l.execRung(ins[1].srv, l.chk)
	hRung, hRS := l.handlerRung(ins[2].srv.Handler(), l.chk)
	ht := &httpTotals{}
	cOff, cOn := newSQLClient(ins[3].addr), newSQLClient(ins[4].addr)
	defer cOff.close()
	defer cOn.close()
	// The two round trips of a statement follow each other, untraced first
	// on even statements and traced first on odd ones: whichever comes
	// second finds the connection and the data warm, and so each kind gets
	// that advantage half the time.
	off, on := l.httpRung(cOff, l.chk, false, ht), l.httpRung(cOn, l.chk, true, ht)
	all = append(all, facRung, execRung, hRung, func(i int, st stmt) {
		if i%2 == 0 {
			off(i, st)
			on(i, st)
		} else {
			on(i, st)
			off(i, st)
		}
	})

	runtime.GC()
	hits0, miss0, _ := ins[1].srv.CacheStats()
	interleave(l.reads, !w.perRound, all...)
	hits1, miss1, _ := ins[1].srv.CacheStats()

	nq := float64(len(l.reads))
	l.setStrategyMetrics(coreRS, coreTot)
	if shRS != nil {
		l.set("shard.select_us", shRS.us(clsSelect, clsSum))
		l.set("shard.route_self_us", shRS.us()-coreRS.us())
	}
	l.set("facade.select_us", facRS.us(clsSelect, clsSum))
	l.set("facade.count_us", facRS.us(clsCount))
	l.set("facade.self_us", facRS.us()-below.us())
	l.set("facade.alloc_b_per_select", ratio(facTot.allocB, nq))
	l.set("core.segments", float64(ins[0].col.SegmentCount()))
	l.set("core.splits_per_round", float64(facTot.stats.Splits))
	l.set("core.recodes_per_round", float64(facTot.stats.Recodes))
	if w.perRound {
		if facTot.quietAt < 0 {
			facTot.quietAt = len(l.reads)
		}
		l.set("core.converge_queries", float64(facTot.quietAt))
	}
	l.set("plancache.hit_share", ratio(float64(hits1-hits0), float64(hits1-hits0+miss1-miss0)))
	l.set("server.exec_us", execRS.us())
	l.set("server.exec_self_us", execRS.us()-facRS.us())
	l.set("server.encode_us", encRS.us())
	l.set("server.encode_ns_per_row", perRow(encRS, execTot.selectRows))
	l.set("server.alloc_b_per_op", ratio(execTot.allocB, nq))
	l.set("http.handler_us", hRS.us())
	l.set("http.handler_self_us", hRS.us()-execRS.us())
	l.setHTTPMetrics(ht)
	l.res.Notes["ladder.below_facade_us"] = below.us()
	l.res.Notes["ladder.self_sum_us"] = below.us() + l.get("facade.self_us") + l.get("server.exec_self_us") +
		l.get("http.handler_self_us") + l.get("http.self_us")
	l.frontEnd(ins[2].srv, append(append([]stmt(nil), l.reads...), l.writes...))

	if len(l.writes) == 0 {
		return nil
	}
	l.set("core.insert_us", l.writeRung("core", strategyWriter(bare)).us(clsInsert))
	id := l.rec.begin("core.merge", 0, 0)
	t0 := time.Now()
	qs, err := bare.MergeDeltas()
	l.set("core.merge_ms", float64(time.Since(t0))/1e6)
	l.rec.end(id, map[string]int64{"merged": int64(qs.Merged), "write_bytes": qs.WriteBytes})
	if err != nil {
		l.problem("core.merge: %v", err)
	}
	if sharded != nil {
		l.set("shard.insert_us", l.writeRung("shard", strategyWriter(sharded)).us(clsInsert))
	}
	return l.writeRungs(ins[0])
}

// writer is the write surface the strategies and the facade share, less
// their different stats types.
type writer struct {
	insert func(int64) error
	update func(old, nv int64) (bool, error)
	remove func(int64) (bool, error)
}

func strategyWriter(s core.DeltaStrategy) writer {
	return writer{
		func(v int64) error { _, err := s.Insert(v); return err },
		func(old, nv int64) (bool, error) { ok, _, err := s.Update(old, nv); return ok, err },
		func(v int64) (bool, error) { ok, _, err := s.Delete(v); return ok, err },
	}
}

func facadeWriter(c *selforg.Column) writer {
	return writer{
		func(v int64) error { _, err := c.Insert(v); return err },
		func(old, nv int64) (bool, error) { ok, _, err := c.Update(old, nv); return ok, err },
		func(v int64) (bool, error) { ok, _, err := c.Delete(v); return ok, err },
	}
}

// writeRung replays the sample's writes through w. Every one must hit:
// the generator only updates and deletes what it inserted.
func (l *ladder) writeRung(prefix string, w writer) *rungStats {
	rs := &rungStats{}
	for i, st := range l.writes {
		ok, err := true, error(nil)
		l.call(rs, opName(prefix, st), i, st, func() map[string]int64 {
			switch st.class {
			case clsInsert:
				err = w.insert(st.a)
			case clsUpdate:
				ok, err = w.update(st.a, st.b)
			case clsDelete:
				ok, err = w.remove(st.a)
			}
			return nil
		})
		if err != nil || !ok {
			l.problem("%s %s: hit=%v err=%v", prefix, st.sql(), ok, err)
		}
	}
	return rs
}

// writeRungs replays the sample's writes at the upper rungs of the write
// side, every rung on its own copy of the column: facade in memory,
// facade durable, Server.Exec on the durable instance, and the WAL by
// itself.
func (l *ladder) writeRungs(in *instance) error {
	w := l.w
	// Facade, in memory.
	o := w.options
	o.Observability.Observer = selforg.NewObserver()
	mem, err := selforg.New(w.extent, append([]int64(nil), l.base...), o)
	if err != nil {
		return err
	}
	memRS := l.writeRung("facade.mem", facadeWriter(mem))
	l.set("facade.insert_mem_us", memRS.us(clsInsert))
	// The pending writes now overlay every read: replay the reads for the
	// overlay volume.
	var overlay int64
	for _, st := range l.reads {
		var fs selforg.Stats
		if st.class == clsCount {
			_, fs = mem.Count(st.a, st.b)
		} else {
			_, fs = mem.SelectRows(st.a, st.b)
		}
		overlay += fs.DeltaReadBytes
	}
	l.set("delta.overlay_bytes_per_q", ratio(float64(overlay), float64(len(l.reads))))
	l.set("delta.pending_bytes", float64(mem.DeltaStats().PendingBytes))
	if _, err := mem.MergeDeltas(); err != nil {
		l.problem("facade.mem merge: %v", err)
	}
	l.set("delta.merges", float64(mem.DeltaStats().Merges))
	mem.Close()

	// Facade, durable.
	ddir, err := walDir(w, l.outDir, l.seed, 1)
	if err != nil {
		return err
	}
	defer os.RemoveAll(ddir)
	o.Observability.Observer = selforg.NewObserver()
	o.Durability = selforg.Durability{Dir: ddir, Fsync: true}
	dur, err := selforg.New(w.extent, append([]int64(nil), l.base...), o)
	if err != nil {
		return err
	}
	defer dur.Close()
	durRS := l.writeRung("facade.durable", facadeWriter(dur))
	l.set("facade.insert_durable_us", durRS.us(clsInsert))
	ws, _ := dur.WALStats()
	l.set("durable.group_fanin", ratio(float64(ws.Records), float64(ws.Batches)))
	l.set("durable.fsyncs_per_write", ratio(float64(ws.Fsyncs), float64(ws.Records)))
	l.set("durable.write_errors", float64(ws.WriteErrors))
	timed := func(name string, f func() error) float64 {
		id := l.rec.begin(name, 0, 0)
		t0 := time.Now()
		err := f()
		ms := float64(time.Since(t0)) / 1e6
		l.rec.end(id, nil)
		if err != nil {
			l.problem("%s: %v", name, err)
		}
		return ms
	}
	l.set("durable.checkpoint_ms", timed("durable.checkpoint", dur.Checkpoint))
	l.set("durable.recover_ms", timed("durable.recover", dur.Recover))

	// Server.Exec on the durable instance: parse, lower, commit.
	exRung, exRS, _, _ := l.execRung(in.srv, &rwChecker{})
	interleave(l.writes, false, exRung)
	l.set("server.exec_write_us", exRS.us())

	// The log by itself: frame, append, fsync, one op at a time.
	ldir, err := walDir(w, l.outDir, l.seed, 2)
	if err != nil {
		return err
	}
	defer os.RemoveAll(ldir)
	log, _, err := wal.Open(filepath.Join(ldir, "ladder.wal"))
	if err != nil {
		return err
	}
	defer log.Close()
	var frame []byte
	var frameNs, appendUs, syncUs []float64
	var bytes float64
	for i, st := range l.writes {
		op := delta.Op{Kind: delta.OpInsert, V: st.a}
		switch st.class {
		case clsUpdate:
			op = delta.Op{Kind: delta.OpUpdate, V: st.a, New: st.b}
		case clsDelete:
			op.Kind = delta.OpDelete
		}
		ops := []delta.Op{op}
		t0 := time.Now()
		frame = wal.AppendFrame(frame[:0], uint64(i+1), ops)
		t1 := time.Now()
		id := l.rec.begin("wal.append", 0, int64(i+1))
		n, err := log.AppendBatch(uint64(i+1), ops)
		t2 := time.Now()
		l.rec.end(id, map[string]int64{"bytes": n})
		id = l.rec.begin("wal.fsync", 0, int64(i+1))
		serr := log.Sync()
		t3 := time.Now()
		l.rec.end(id, nil)
		if err != nil || serr != nil {
			l.problem("wal: append %v, sync %v", err, serr)
		}
		frameNs = append(frameNs, float64(t1.Sub(t0)))
		appendUs = append(appendUs, float64(t2.Sub(t1))/1e3)
		syncUs = append(syncUs, float64(t3.Sub(t2))/1e3)
		bytes += float64(n)
	}
	l.set("wal.frame_ns", median(frameNs))
	l.set("wal.append_us", median(appendUs))
	l.set("wal.fsync_us", median(syncUs))
	l.set("wal.bytes_per_op", ratio(bytes, float64(len(l.writes))))
	// What a durable write costs beyond the in-memory write, the append
	// and the fsync it is made of: the committer's queueing and hand-off.
	l.set("durable.commit_self_us", durRS.us()-memRS.us()-l.get("wal.append_us")-l.get("wal.fsync_us"))
	return nil
}
