package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"selforg"
	"selforg/internal/server"
)

// The untraced run. A run is a sequence of parts, each a freshly set-up
// column and the traffic of two closed-loop clients on it: three parts of
// a third of the window each for the workloads measured converged, one
// part per round for adapt_cold. Every metric is taken per part, or per
// slice of a part's window, and the run reports a middle or a quiet one
// (summarize says which), so that what the sandbox slowed down — a
// neighbour's burst, an unlucky placement of the column in memory — is
// outvoted instead of averaged in.

// instance is one server under test on a loopback listener.
type instance struct {
	srv  *server.Server
	col  *selforg.Column
	cfg  server.Config
	hs   *http.Server
	addr string
	done chan struct{} // closed when Serve has returned
}

// startInstance builds the server and its column, converges the layout
// (unless the workload measures exactly that) and opens the listener.
// wrap, when not nil, wraps the handler (the traced run's middleware).
func startInstance(w *workloadDef, sc *scale, seed int64, dir string, wrap func(http.Handler) http.Handler) (*instance, error) {
	in := &instance{cfg: w.config(seed, w.n(sc), dir)}
	in.srv = server.New(in.cfg)
	fail := func(err error) (*instance, error) {
		in.srv.Close()
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	col, err := in.srv.Tenant("")
	if err != nil {
		return fail(fmt.Errorf("%s: build column: %w", w.name, err))
	}
	in.col = col
	if !w.perRound {
		if err := converge(in.srv, w, sc, seed); err != nil {
			return fail(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	h := in.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	in.addr = ln.Addr().String()
	in.hs, in.done = serve(ln, h)
	return in, nil
}

// serve runs an HTTP server on ln until it is shut down; done closes when
// Serve has returned.
func serve(ln net.Listener, h http.Handler) (*http.Server, chan struct{}) {
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return hs, done
}

// shutdown stops an HTTP server started by serve and waits for it.
func shutdown(hs *http.Server, done chan struct{}) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	<-done
}

// close shuts the listener down, waits for it, releases the column and
// removes its WAL directory.
func (in *instance) close() {
	shutdown(in.hs, in.done)
	in.srv.Close()
	if dir := in.cfg.Options.Durability.Dir; dir != "" {
		os.RemoveAll(dir)
	}
}

// warmUp replays passes of the workload's read statements through exec,
// which reports how many splits, drops and recodes a statement caused,
// until one whole pass reorganizes nothing or the passes are used up (the
// tail of a skewed workload may never all be touched). It reads only, so
// the column still holds exactly the generated values afterwards. It
// returns how many statements ran before 50 in a row reorganized nothing.
// Every state a measurement runs on — the served column and the traced
// run's bare strategies — is converged by this one rule.
func warmUp(w *workloadDef, sc *scale, seed int64, exec func(stmt) (changed int, err error)) (untilQuiet int, err error) {
	n, quiet := 0, 0
	untilQuiet = -1
	for pass := 0; pass < sc.warmPasses; pass++ {
		changed := 0
		for c := 0; c < clients; c++ {
			g := w.newGen(w, sc, seed, fmt.Sprintf("warm%d", pass), c)
			for i := 0; i < w.pool(sc)/clients; i++ {
				s := g.next()
				if s.class.isWrite() {
					continue
				}
				d, err := exec(s)
				if err != nil {
					return n, fmt.Errorf("%s: warm-up %s: %w", w.name, s.sql(), err)
				}
				n++
				if d != 0 {
					changed += d
					quiet = 0
				} else if quiet++; quiet == 50 && untilQuiet < 0 {
					untilQuiet = n - 50
				}
			}
		}
		if changed == 0 {
			break
		}
	}
	if untilQuiet < 0 {
		untilQuiet = n // never 50 quiet statements in a row
	}
	return untilQuiet, nil
}

// converge warms the served column up through Server.Exec.
func converge(srv *server.Server, w *workloadDef, sc *scale, seed int64) error {
	_, err := warmUp(w, sc, seed, func(s stmt) (int, error) {
		res, err := srv.Exec("", s.sql())
		if err != nil {
			return 0, err
		}
		return res.Stats.Splits + res.Stats.Drops + res.Stats.Recodes, nil
	})
	return err
}

// clientTally is what one client measured.
type clientTally struct {
	lat       [numClasses][]float64 // ms, successful statements only
	when      [numClasses][]float64 // s after epoch at which each of them was sent
	epoch     time.Time             // start of the part's window
	attempted int64
	failed    int64
	shed      int64
	rows      int64
	self      time.Duration // time spent parsing and checking replies
	fails     []string
}

func (t *clientTally) fail(msg string) {
	t.failed++
	if len(t.fails) < 5 {
		t.fails = append(t.fails, msg)
	}
}

// merge adds o's measurements to t.
func (t *clientTally) merge(o *clientTally) {
	for c := range t.lat {
		t.lat[c] = append(t.lat[c], o.lat[c]...)
		t.when[c] = append(t.when[c], o.when[c]...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.shed += o.shed
	t.rows += o.rows
	t.self += o.self
	for _, f := range o.fails {
		if len(t.fails) < 5 {
			t.fails = append(t.fails, f)
		}
	}
}

// ops is the number of statements that succeeded.
func (t *clientTally) ops() int {
	n := 0
	for c := range t.lat {
		n += len(t.lat[c])
	}
	return n
}

// sumMs is the summed latency of the statements that succeeded.
func (t *clientTally) sumMs() float64 {
	s := 0.0
	for c := range t.lat {
		for _, ms := range t.lat[c] {
			s += ms
		}
	}
	return s
}

// drive runs one closed-loop client until stop returns true, checked
// before every statement.
func drive(c *sqlClient, g generator, chk checker, t *clientTally, stop func(done int) bool) {
	var r reply
	for done := 0; !stop(done); done++ {
		s := g.next()
		t0 := time.Now()
		wait, status, fail := c.exchange(s, chk, &r)
		t.self += time.Since(t0) - wait
		t.attempted++
		if status == http.StatusTooManyRequests {
			t.shed++
		}
		if fail != "" {
			t.fail(fail)
			continue
		}
		t.lat[s.class] = append(t.lat[s.class], float64(wait)/1e6)
		t.when[s.class] = append(t.when[s.class], t0.Sub(t.epoch).Seconds())
		t.rows += int64(r.nrows)
	}
}

// part is one set-up and the traffic measured on it.
type part struct {
	tally    clientTally // both clients'
	window   float64     // seconds of traffic
	setup    float64     // seconds of set-up
	spaceAmp float64
	first100 float64 // adapt_cold: summed latency of the round's first 100 statements, ms
}

// e2eResult is the untraced run of one workload.
type e2eResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Window    float64            `json:"window_s"`
	Parts     int                `json:"parts"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	Notes     map[string]float64 `json:"notes,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const elemSize = 4 // selforg.Options.ElemSize default, the paper's 4-byte columns

// spaceAmp is the column's physical-to-logical ratio now: bytes held
// (encoded segments + pending delta + WAL on disk) per live value ×
// ElemSize. base is the number of generated values.
func spaceAmp(col *selforg.Column, base int) float64 {
	ds := col.DeltaStats()
	held := col.StorageBytes() + ds.PendingBytes
	if ws, ok := col.WALStats(); ok {
		held += ws.WALSize
	}
	live := int64(base) + ds.Inserts - ds.Deletes
	return float64(held) / float64(live*elemSize)
}

// models is the benchmark's copy of a column's base data.
type models struct {
	base     []int64
	all      *oracle
	byParity [2]*oracle // mixed_rw only
}

func newModels(w *workloadDef, base []int64) *models {
	m := &models{base: base}
	if w.durable {
		parts := splitParity(base)
		m.byParity = [2]*oracle{newOracle(parts[0]), newOracle(parts[1])}
	} else {
		m.all = newOracle(base)
	}
	return m
}

// buildClients makes each client's generator and checker for one part.
func buildClients(w *workloadDef, sc *scale, seed int64, m *models, stream string) ([]generator, []checker) {
	gens := make([]generator, clients)
	chks := make([]checker, clients)
	for i := range gens {
		gens[i] = w.newGen(w, sc, seed, stream, i)
		if g, ok := gens[i].(*rwGen); ok {
			chks[i] = &rwChecker{base: m.byParity, parity: g.parity, live: g.live}
		} else {
			chks[i] = &readChecker{base: m.all, maxRows: w.maxRows}
		}
	}
	return gens, chks
}

// runE2E measures one workload untraced.
func runE2E(w *workloadDef, sc *scale, seed int64, seconds float64, outDir string) (*e2eResult, error) {
	res := &e2eResult{Workload: w.name, Seed: seed, Seconds: seconds,
		Metrics: map[string]metric{}, Samples: map[string]int{}, Notes: map[string]float64{}}
	var parts []*part
	var err error
	if w.perRound {
		parts, err = runRounds(w, sc, seed, seconds, res)
	} else {
		parts, err = runParts(w, sc, seed, seconds, outDir, res)
	}
	if err != nil {
		return nil, err
	}
	summarize(sc, parts, res)
	return res, nil
}

// walDir returns a fresh directory for a durable instance.
func walDir(w *workloadDef, outDir string, seed int64, k int) (string, error) {
	if !w.durable {
		return "", nil
	}
	dir := filepath.Join(outDir, fmt.Sprintf("wal-%s-%d-%d-%d", w.name, seed, os.Getpid(), k))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// runParts is the shape of the workloads measured converged: sc.setups
// times, set up a column and let two clients run on it for its share of
// the window. Each part draws its own data and streams from the run's
// seed, so that what depends on the draw — how many passes convergence
// takes, which layout it leaves — is outvoted over the parts like the
// machine's noise.
func runParts(w *workloadDef, sc *scale, runSeed int64, seconds float64, outDir string, res *e2eResult) ([]*part, error) {
	var parts []*part
	var books durableBooks
	for k := 0; k < sc.setups; k++ {
		seed := subSeed(runSeed, w.name, "part", k)
		dir, err := walDir(w, outDir, runSeed, k)
		if err != nil {
			return nil, err
		}
		m := newModels(w, w.values(seed, w.n(sc)))
		// The part before left garbage; collect it before the set-up is
		// timed and the window opens, not in them.
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		in, err := startInstance(w, sc, seed, dir, nil)
		if err != nil {
			return nil, err
		}
		p := &part{setup: time.Since(t0).Seconds()}
		parts = append(parts, p)
		err = runPart(w, sc, seed, seconds/float64(sc.setups), k, in, m, p, &books)
		in.close()
		if err != nil {
			return nil, err
		}
	}
	if w.durable {
		books.report(sc, res)
	}
	return parts, nil
}

// runPart lets two clients run on in for the given seconds.
func runPart(w *workloadDef, sc *scale, seed int64, seconds float64, k int, in *instance, m *models, p *part, books *durableBooks) error {
	gens, chks := buildClients(w, sc, seed, m, fmt.Sprintf("run%d", k))
	cls := make([]*sqlClient, clients)
	tallies := make([]*clientTally, clients)
	for i := range cls {
		cls[i] = newSQLClient(in.addr)
		defer cls[i].close()
		tallies[i] = &clientTally{}
	}
	var before selforg.WALStats
	if w.durable {
		before, _ = in.col.WALStats()
	}
	mergesBefore := in.col.DeltaStats().Merges

	start := time.Now()
	for _, t := range tallies {
		t.epoch = start
	}
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	var running atomic.Int32
	running.Store(clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer running.Add(-1)
			drive(cls[i], gens[i], chks[i], tallies[i], func(int) bool { return !time.Now().Before(deadline) })
		}(i)
	}
	// space_amp is averaged over the window rather than read at its end,
	// so that it does not depend on how long ago the last checkpoint
	// happened to truncate the log.
	var space []float64
	tick := time.NewTicker(50 * time.Millisecond)
	for running.Load() > 0 {
		<-tick.C
		space = append(space, spaceAmp(in.col, len(m.base)))
	}
	tick.Stop()
	wg.Wait()
	p.window = time.Since(start).Seconds()
	p.spaceAmp = mean(space)
	for _, t := range tallies {
		p.tally.merge(t)
	}
	if w.durable {
		return books.close(w, sc, seed, in, m, gens, &p.tally, before, mergesBefore)
	}
	return nil
}

// durableBooks sums mixed_rw's write-side counts over the parts.
type durableBooks struct {
	acked, walBytes, merges, ckpts, records, batches, writeErrors int64
	shards                                                        int
	recoverMs                                                     []float64
	lastError                                                     string
}

// close closes one part's books: the write-side counts, and the
// acked-survives check — the whole column must equal the model now and
// again after close and reopen.
func (b *durableBooks) close(w *workloadDef, sc *scale, seed int64, in *instance, m *models, gens []generator, tally *clientTally, before selforg.WALStats, mergesBefore int64) error {
	after, _ := in.col.WALStats()
	for c := clsInsert; c < numClasses; c++ {
		b.acked += int64(len(tally.lat[c]))
	}
	b.walBytes += after.Bytes - before.Bytes
	b.merges += in.col.DeltaStats().Merges - mergesBefore
	b.ckpts += after.Checkpoints - before.Checkpoints
	b.records += after.Records - before.Records
	b.batches += after.Batches - before.Batches
	b.writeErrors += after.WriteErrors
	b.lastError = after.LastError
	b.shards = in.col.Shards()

	// The model of the whole column: base plus what each client still holds.
	wantN, wantSum := int64(len(m.base)), m.byParity[0].prefix[len(m.byParity[0].sorted)]+m.byParity[1].prefix[len(m.byParity[1].sorted)]
	for _, g := range gens {
		l := g.(*rwGen).live
		wantN += int64(l.len())
		wantSum += l.sum
	}
	whole := func(srv *server.Server, when string) error {
		full := stmt{class: clsSum, a: w.extent.Lo, b: w.extent.Hi}
		r, err := srv.Exec("", full.sql())
		tally.attempted++
		if err != nil {
			return fmt.Errorf("%s: full-domain sum %s: %w", w.name, when, err)
		}
		if r.Count != wantN || r.Sum != wantSum {
			tally.fail(fmt.Sprintf("%s %s: count %d sum %d, model count %d sum %d",
				full.sql(), when, r.Count, r.Sum, wantN, wantSum))
		}
		return nil
	}
	if err := whole(in.srv, "after the window"); err != nil {
		return err
	}
	// Close, then reopen over the same directory: every acknowledged write
	// must still be there. A process that survives keeps the OS cache, so
	// this checks the log and checkpoint logic, not the device.
	in.srv.Close()
	t0 := time.Now()
	re := server.New(w.config(seed, w.n(sc), in.cfg.Options.Durability.Dir))
	defer re.Close()
	if _, err := re.Tenant(""); err != nil {
		return fmt.Errorf("%s: reopen: %w", w.name, err)
	}
	b.recoverMs = append(b.recoverMs, float64(time.Since(t0))/1e6)
	return whole(re, "after close and reopen")
}

// report writes the write-side metrics and applies the several-cycles
// rule: a run in which the background work did not cycle is not a
// measurement of it.
func (b *durableBooks) report(sc *scale, res *e2eResult) {
	if b.acked > 0 {
		res.Metrics["wal_bytes_per_write"] = metric{float64(b.walBytes) / float64(b.acked), "B"}
		res.Samples["wal_bytes_per_write"] = int(b.acked)
	}
	res.Notes["merge_backs"] = float64(b.merges)
	res.Notes["checkpoints"] = float64(b.ckpts)
	res.Notes["group_fanin"] = ratio(float64(b.records), float64(b.batches))
	res.Notes["write_errors"] = float64(b.writeErrors)
	res.Notes["recover_ms"] = median(b.recoverMs)
	// The facade reports merge-backs summed over the shards; writes are
	// uniform over the domain, so the sum stands for each shard's share.
	if b.merges < int64(sc.minMerges*b.shards) || (sc.minMerges > 0 && b.ckpts < int64(b.shards)) {
		res.Problems = append(res.Problems, fmt.Sprintf(
			"invalid run: %d merge-backs and %d checkpoints over %d shards, need %d and %d",
			b.merges, b.ckpts, b.shards, sc.minMerges*b.shards, b.shards))
	}
	if b.writeErrors != 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d write errors, last: %s", b.writeErrors, b.lastError))
	}
}

// runRounds is adapt_cold's shape: every round builds a fresh server and
// column (its set-up), lets both clients run one pass of the shifting
// sequence between two barriers, and adds the round's window to the
// measured time until that reaches the requested seconds.
func runRounds(w *workloadDef, sc *scale, seed int64, seconds float64, res *e2eResult) ([]*part, error) {
	m := newModels(w, w.values(seed, w.n(sc)))
	gens, chks := buildClients(w, sc, seed, m, "run")
	perRound := 4 * sc.perPhase
	firstN := 100 / clients
	if firstN > perRound {
		firstN = perRound
	}
	// One listener and two connections for the whole run; each round swaps
	// the fresh server's handler in behind them.
	var current atomic.Pointer[http.Handler]
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs, done := serve(ln, http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		(*current.Load()).ServeHTTP(rw, r)
	}))
	defer shutdown(hs, done)
	cls := make([]*sqlClient, clients)
	for i := range cls {
		cls[i] = newSQLClient(ln.Addr().String())
		defer cls[i].close()
	}

	var parts []*part
	for window := 0.0; window < seconds || len(parts) == 0; {
		runtime.GC()
		t0 := time.Now()
		srv := server.New(w.config(seed, w.n(sc), ""))
		col, err := srv.Tenant("")
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("%s: build column: %w", w.name, err)
		}
		h := srv.Handler()
		current.Store(&h)
		p := &part{setup: time.Since(t0).Seconds()}
		parts = append(parts, p)

		firsts := make([]*clientTally, clients)
		rests := make([]*clientTally, clients)
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < clients; i++ {
			wg.Add(1)
			firsts[i], rests[i] = &clientTally{epoch: start}, &clientTally{epoch: start}
			go func(i int) {
				defer wg.Done()
				drive(cls[i], gens[i], chks[i], firsts[i], func(done int) bool { return done >= firstN })
				drive(cls[i], gens[i], chks[i], rests[i], func(done int) bool { return done >= perRound-firstN })
			}(i)
		}
		wg.Wait()
		p.window = time.Since(start).Seconds()
		window += p.window
		for i := range firsts {
			p.first100 += firsts[i].sumMs()
			p.tally.merge(firsts[i])
			p.tally.merge(rests[i])
		}
		p.spaceAmp = spaceAmp(col, len(m.base))
		res.Notes["segments_at_round_end"] = float64(col.SegmentCount())
		srv.Close()
	}
	firsts := make([]float64, len(parts))
	for i, p := range parts {
		firsts[i] = p.first100
	}
	res.Metrics["cold_first100_ms"] = metric{median(firsts), "ms"}
	res.Samples["cold_first100_ms"] = len(firsts)
	return parts, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sliceSeconds is the least length of a slice of a part's window.
const sliceSeconds = 1.0

// slices cuts the part's window into equal slices of at least sliceSeconds
// (a shorter window, such as a round of adapt_cold, is one slice) and
// returns, sorted, the latencies of the statements of the given classes
// that were sent in each.
func (p *part) slices(classes []class) [][]float64 {
	n := max(1, int(p.window/sliceSeconds))
	out := make([][]float64, n)
	for _, c := range classes {
		for i, ms := range p.tally.lat[c] {
			k := min(int(p.tally.when[c][i]/p.window*float64(n)), n-1)
			out[k] = append(out[k], ms)
		}
	}
	for _, s := range out {
		sort.Float64s(s)
	}
	return out
}

// latencyGroups are the statement groups latencies are reported for, as
// "<name>_p50_ms", "<name>_p95_ms" and "<name>_p99_ms" where set. op is
// every statement of the workload, whatever its class: the one tail
// figure all four workloads have.
var latencyGroups = []struct {
	name          string
	classes       []class
	p50, p95, p99 bool
}{
	{"count", []class{clsCount}, true, false, true},
	{"sum", []class{clsSum}, true, false, false},
	{"select", []class{clsSelect}, true, false, true},
	{"write", []class{clsInsert, clsUpdate, clsDelete}, true, false, true},
	{"op", []class{clsCount, clsSum, clsSelect, clsInsert, clsUpdate, clsDelete}, false, true, true},
}

// summarize turns the parts into the named metrics. Every metric is taken
// per part and the run reports the median part. Within a part a p50 or
// p95 is taken per slice of the window, of the slices that support it with
// ten samples beyond, and the part's value is the slices' first quartile:
// a neighbour on the shared host only ever makes a second slower, so the
// quieter seconds say more about the program than the middle one, and what
// the program itself does periodically — collections, merge-backs,
// checkpoints — happens several times in every slice. A p99 needs more
// samples than a slice of scan_wide has: it is taken over the whole part,
// and the run as a whole must support it with ten samples beyond.
func summarize(sc *scale, parts []*part, res *e2eResult) {
	var all clientTally
	var opsRate, rowsRate, setups, space []float64
	for _, p := range parts {
		all.merge(&p.tally)
		res.Window += p.window
		opsRate = append(opsRate, ratio(float64(p.tally.ops()), p.window))
		rowsRate = append(rowsRate, ratio(float64(p.tally.rows), p.window))
		setups = append(setups, p.setup)
		space = append(space, p.spaceAmp)
	}
	res.Parts = len(parts)
	res.Attempted, res.Failed = all.attempted, all.failed
	res.Problems = append(res.Problems, all.fails...)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["ops_per_s"] = metric{median(opsRate), "1/s"}
	res.Metrics["rows_per_s"] = metric{median(rowsRate), "1/s"}
	res.Metrics["space_amp"] = metric{median(space), "ratio"}
	res.Metrics["fail_share"] = metric{ratio(float64(all.failed), float64(all.attempted)), "ratio"}
	for _, name := range []string{"setup_s", "ops_per_s", "rows_per_s", "space_amp"} {
		res.Samples[name] = len(parts) // each is the median of as many per-part values
	}
	res.Samples["fail_share"] = int(all.attempted)
	res.Notes["client_self_us"] = ratio(float64(all.self)/1e3, float64(all.attempted))

	for _, g := range latencyGroups {
		var pooled, p50s, p95s, p99s []float64 // per part
		for _, p := range parts {
			var lat, s50, s95 []float64 // s50, s95: per slice
			for _, s := range p.slices(g.classes) {
				lat = append(lat, s...)
				if v, err := percentile(s, 0.50); err == nil {
					s50 = append(s50, v)
				}
				if v, err := percentile(s, 0.95); err == nil {
					s95 = append(s95, v)
				}
			}
			if len(s50) > 0 {
				p50s = append(p50s, firstQuartile(s50))
			}
			if len(s95) > 0 {
				p95s = append(p95s, firstQuartile(s95))
			}
			sort.Float64s(lat)
			pooled = append(pooled, lat...)
			if len(lat) >= 100 {
				p99s = append(p99s, nearestRank(lat, 0.99))
			}
		}
		if len(pooled) == 0 {
			continue // a class this workload does not issue
		}
		sort.Float64s(pooled)
		report := func(name string, q float64, perPart []float64) {
			res.Samples[name] = len(pooled)
			_, err := percentile(pooled, q)
			switch {
			case err == nil && len(perPart) > 0:
				res.Metrics[name] = metric{median(perPart), "ms"}
			case sc.quick:
				// The smoke scale is too small for tails: it reports the
				// largest sample under the name, and says so.
				res.Metrics[name] = metric{pooled[len(pooled)-1], "ms"}
				res.Notes["quick_scale_tail_is_max"] = 1
			default:
				res.Problems = append(res.Problems, fmt.Sprintf("sizing: %s: %d parts support it, %v", name, len(perPart), err))
			}
		}
		if g.p50 {
			report(g.name+"_p50_ms", 0.50, p50s)
		}
		if g.p95 {
			report(g.name+"_p95_ms", 0.95, p95s)
		}
		if g.p99 {
			report(g.name+"_p99_ms", 0.99, p99s)
		}
	}
	res.Correct = all.failed == 0 && len(res.Problems) == 0
}
