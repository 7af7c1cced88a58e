// Command soserve is the query service tier over a self-organizing
// column: SQL over the wire with a normalized-fingerprint plan cache,
// admission control, per-tenant columns, and the full observability
// surface (Prometheus metrics, phase traces, adaptation events, layout
// breakdown, pprof). Every query applies the reorganization it triggers
// before it answers.
//
//	$ soserve -n 1000000 -strategy segmentation -model apm -trace -qps 50
//	$ curl -d 'SELECT COUNT(*) FROM P WHERE v BETWEEN 1000 AND 2000' localhost:8080/sql
//	$ curl -d 'SELECT SUM(v) FROM P WHERE v BETWEEN 1000 AND 2000' 'localhost:8080/sql?tenant=alice'
//	$ curl localhost:8080/metrics              # plancache_hits_total, sql_inflight, ...
//	$ curl -d 'INSERT INTO P VALUES (1234)' localhost:8080/sql
//	$ curl localhost:8080/debug/queries | jq .
//
// POST /sql is the one way in, and every tenant serves one table,
// sys.P(v). Every statement takes one path — normalize → plan cache →
// parse → bind → run: constants are lifted into bind values, the
// canonical fingerprint keys a sharded LRU of bound physical plans
// (SELECT shapes; the cached plan is the operator that executes), and a
// warm request costs one lex pass plus a cache hit before it touches
// the column. ?explain=1 adds that plan to the answer. Any other table,
// and CREATE TABLE, is a 400. Requests beyond the admission gate's
// workers+backlog budget are shed with 429 and a Retry-After hint.
//
// The optional built-in workload driver (-qps) issues random range
// queries against the default tenant so the self-organizing loop — and
// every dashboard behind /metrics — has something to show without an
// external client.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"selforg"
	"selforg/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		n       = flag.Int("n", 1_000_000, "number of generated values per tenant")
		lo      = flag.Int64("lo", 0, "domain lower bound")
		hi      = flag.Int64("hi", 999_999, "domain upper bound")
		seed    = flag.Int64("seed", 42, "data generator seed")
		strat   = flag.String("strategy", "segmentation", "segmentation|replication")
		mdl     = flag.String("model", "apm", "apm|gd|none")
		shards  = flag.Int("shards", 1, "domain shard count")
		compr   = flag.Bool("compress", false, "adaptive per-segment compression")
		par     = flag.Int("parallelism", 0, "per-query scan fan-out (0 = adaptive)")
		workers = flag.Int("workers", 0, "concurrent /sql executions (0 = from parallelism/GOMAXPROCS)")
		backlog = flag.Int("backlog", 0, "admitted requests waiting for a worker (0 = 2x workers)")
		plans   = flag.Int("plans", 0, "plan cache capacity (0 = 1024)")
		maxRows = flag.Int("maxrows", 1000, "rows a SELECT returns over the wire")
		trace   = flag.Bool("trace", false, "per-query phase tracing")
		sample  = flag.Int("trace-sample", 1, "trace 1 in N queries")
		slow    = flag.Duration("slow", 0, "slow-query threshold (0 = 10ms default)")
		qps     = flag.Int("qps", 0, "built-in workload driver: queries per second (0 = off)")
		selPerc = flag.Float64("sel", 0.001, "workload driver selectivity (fraction of the domain)")
		walDir  = flag.String("wal-dir", "", "durability: per-tenant WAL directory (empty = in-memory only)")
		walSync = flag.Bool("wal-fsync", false, "durability: fsync every commit group (machine-crash safety)")
		walWin  = flag.Duration("wal-window", 0, "durability: group-commit gather window (0 = opportunistic)")
	)
	flag.Parse()

	opts := selforg.Options{
		Shards:      *shards,
		Parallelism: *par,
		Observability: selforg.Observability{
			Trace:       *trace,
			TraceSample: *sample,
			SlowQuery:   *slow,
		},
	}
	switch *strat {
	case "segmentation", "segm":
		opts.Strategy = selforg.Segmentation
	case "replication", "repl":
		opts.Strategy = selforg.Replication
	default:
		fmt.Fprintf(os.Stderr, "unknown strategy %q\n", *strat)
		os.Exit(2)
	}
	switch *mdl {
	case "apm":
		opts.Model = selforg.APM
	case "gd":
		opts.Model = selforg.GD
	case "none":
		opts.Model = selforg.None
	default:
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *mdl)
		os.Exit(2)
	}
	if *compr {
		opts.Compression = selforg.CompressionAuto
	}
	if *walDir != "" {
		opts.Durability = selforg.Durability{
			Dir:         *walDir,
			Fsync:       *walSync,
			GroupWindow: *walWin,
		}
	}

	srv := server.New(server.Config{
		Extent:        selforg.Interval{Lo: *lo, Hi: *hi},
		N:             *n,
		Seed:          *seed,
		Options:       opts,
		CacheCapacity: *plans,
		Workers:       *workers,
		Backlog:       *backlog,
		MaxRows:       *maxRows,
	})

	// Build the default tenant up front so the first request doesn't pay
	// for data generation.
	col, err := srv.Tenant("")
	if err != nil {
		srv.Close()
		log.Fatalf("soserve: %v", err)
	}
	log.Printf("serving sys.P.v (%s) over %d values on %s", col.Name(), *n, *addr)
	if col.Durable() {
		mode := "no fsync"
		if *walSync {
			mode = "fsync"
		}
		log.Printf("durability: WAL under %s (%s, group window %v)", *walDir, mode, *walWin)
	}

	if *qps > 0 {
		go drive(col, *lo, *hi, *qps, *selPerc, *seed)
		log.Printf("workload driver: %d qps, selectivity %.4f", *qps, *selPerc)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		log.Fatalf("soserve: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, srv, ln); err != nil {
		log.Fatalf("soserve: %v", err)
	}
}

// shutdownGrace bounds how long in-flight requests get to finish once a
// stop is requested.
const shutdownGrace = 10 * time.Second

// serve answers requests on ln until ctx is cancelled (SIGINT/SIGTERM in
// main), then stops gracefully: the listener closes, in-flight requests
// finish (bounded by shutdownGrace), and srv.Close drains every tenant's
// group committer and syncs and closes its shard logs — so with
// -wal-fsync=false an acknowledged write survives not just the process's
// death but the reboot that follows a graceful stop. srv is closed on
// every return path.
func serve(ctx context.Context, srv *server.Server, ln net.Listener) error {
	defer srv.Close()
	hs := &http.Server{Handler: srv.Handler()}
	failed := make(chan error, 1)
	go func() { failed <- hs.Serve(ln) }()
	select {
	case err := <-failed:
		return err
	case <-ctx.Done():
	}
	grace, cancel := context.WithTimeout(context.WithoutCancel(ctx), shutdownGrace)
	defer cancel()
	err := hs.Shutdown(grace)
	if serr := <-failed; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// drive issues random range queries at the requested rate so the column
// self-organizes (and the observability endpoints fill) unattended.
func drive(col *selforg.Column, lo, hi int64, qps int, sel float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	width := int64(float64(hi-lo+1) * sel)
	if width < 1 {
		width = 1
	}
	tick := time.NewTicker(time.Second / time.Duration(qps))
	defer tick.Stop()
	for range tick.C {
		qlo := lo + rng.Int63n(hi-lo+1)
		qhi := qlo + width - 1
		if qhi > hi {
			qhi = hi
		}
		if rng.Intn(4) == 0 {
			col.Count(qlo, qhi)
		} else {
			col.Select(qlo, qhi)
		}
	}
}
