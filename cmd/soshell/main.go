// Command soshell is a small interactive shell around the selforg public
// API: generate or load a column, pick a strategy and model, run range
// queries and watch the layout reorganize itself.
//
// Example session (also scriptable via a pipe):
//
//	$ soshell
//	> gen 100000 0 999999 42
//	> strategy segmentation
//	> model apm 3072 12288
//	> shards 4
//	> build
//	> select 100000 199999
//	> layout
//	> totals
//	> quit
package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"selforg"

	"selforg/internal/domain"
	"selforg/internal/server"
	"selforg/internal/sim"
)

type shell struct {
	values []int64
	lo, hi int64
	opts   selforg.Options
	col    *selforg.Column
	srv    *server.Server // the statement path over col, for 'sql'
	pins   map[string]*selforg.View
	out    *bufio.Writer
}

func main() {
	sh := &shell{
		lo: 0, hi: 999_999,
		opts: selforg.Options{Strategy: selforg.Segmentation, Model: selforg.APM},
		out:  bufio.NewWriter(os.Stdout),
	}
	defer sh.out.Flush()
	fmt.Fprintln(sh.out, "selforg shell — 'help' lists commands")
	sh.out.Flush()
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(sh.out, "> ")
		sh.out.Flush()
		if !sc.Scan() {
			fmt.Fprintln(sh.out)
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if err := sh.exec(line); err != nil {
			fmt.Fprintf(sh.out, "error: %v\n", err)
		}
	}
}

func (sh *shell) exec(line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		fmt.Fprint(sh.out, `commands:
  gen N LO HI [SEED]        generate N uniform values over [LO, HI]
  strategy segmentation|replication
  model apm [MMIN MMAX] | gd [SEED] | none
  shards K                  range-partition the domain into K shards (1 = off)
  build                     construct the adaptive column
  select LO HI              run a range query
  count LO HI               count rows in range (meta-index fast path)
  insert V                  write one row through the MVCC delta store
  update OLD NEW            replace one occurrence of OLD with NEW
  delete V                  remove one occurrence of V
  sql STATEMENT             run SQL through the server's statement path, the
                            column served as sys.P(v): SELECT v / count(*) /
                            sum(v) ... WHERE v BETWEEN, INSERT INTO P VALUES (..),
                            UPDATE P SET v=.., DELETE FROM P WHERE v=..,
                            EXPLAIN SELECT .. for the plan it runs
  merge                     force the delta merge-back into the base
  delta                     show the write store's counters
  wal on DIR [fsync]        enable durability on the next build: group-commit
                            writes through per-shard WALs under DIR
  wal off                   disable durability on the next build
  wal stats                 show the committer's counters (batches, fsyncs...)
  checkpoint                capture shard contents, truncate the logs
  recover                   rebuild the column from the logs in place
  pin NAME                  hold a named MVCC view open at the current snapshot
  view NAME LO HI           query a pinned view (stable across later writes/merges)
  unpin NAME                release a pinned view
  layout                    show the segment layout / replica tree
  totals                    cumulative statistics
  metrics                   dump the metrics registry (Prometheus text format)
  trace on [N [SLOWMS]]     trace 1-in-N queries (default every), slow bar SLOWMS
  trace off                 disable per-query phase tracing
  trace show                show traced queries (slow ones marked)
  events                    show the adaptation event log (splits, replicas, merges...)
  glue MINBYTES             merge segments smaller than MINBYTES
  quit
`)
		return nil
	case "gen":
		if len(args) < 3 {
			return fmt.Errorf("gen N LO HI [SEED]")
		}
		n, err := atoi(args[0])
		if err != nil {
			return err
		}
		lo, err := atoi(args[1])
		if err != nil {
			return err
		}
		hi, err := atoi(args[2])
		if err != nil {
			return err
		}
		seed := int64(42)
		if len(args) > 3 {
			if seed, err = atoi(args[3]); err != nil {
				return err
			}
		}
		if hi <= lo {
			return fmt.Errorf("empty domain")
		}
		vals := sim.GenerateColumn(int(n), domain.NewRange(lo, hi), seed)
		sh.values = vals
		sh.lo, sh.hi = lo, hi
		sh.col = nil
		fmt.Fprintf(sh.out, "generated %d values over [%d, %d]\n", n, lo, hi)
		return nil
	case "strategy":
		if len(args) != 1 {
			return fmt.Errorf("strategy segmentation|replication")
		}
		switch args[0] {
		case "segmentation", "segm":
			sh.opts.Strategy = selforg.Segmentation
		case "replication", "repl":
			sh.opts.Strategy = selforg.Replication
		default:
			return fmt.Errorf("unknown strategy %q", args[0])
		}
		sh.col = nil
		return nil
	case "model":
		if len(args) < 1 {
			return fmt.Errorf("model apm|gd|none")
		}
		switch args[0] {
		case "apm":
			sh.opts.Model = selforg.APM
			if len(args) == 3 {
				mmin, err := atoi(args[1])
				if err != nil {
					return err
				}
				mmax, err := atoi(args[2])
				if err != nil {
					return err
				}
				sh.opts.APMMin, sh.opts.APMMax = mmin, mmax
			}
		case "gd":
			sh.opts.Model = selforg.GD
			if len(args) == 2 {
				seed, err := atoi(args[1])
				if err != nil {
					return err
				}
				sh.opts.GDSeed = seed
			}
		case "none":
			sh.opts.Model = selforg.None
		default:
			return fmt.Errorf("unknown model %q", args[0])
		}
		sh.col = nil
		return nil
	case "shards":
		if len(args) != 1 {
			return fmt.Errorf("shards K")
		}
		k, err := atoi(args[0])
		if err != nil {
			return err
		}
		if k < 1 {
			return fmt.Errorf("shard count must be at least 1")
		}
		sh.opts.Shards = int(k)
		sh.col = nil
		return nil
	case "build":
		if sh.values == nil {
			return fmt.Errorf("no data: run 'gen' first")
		}
		vals := append([]int64(nil), sh.values...)
		col, err := selforg.New(selforg.Interval{Lo: sh.lo, Hi: sh.hi}, vals, sh.opts)
		if err != nil {
			return err
		}
		sh.col = col
		sh.srv = server.NewOver(server.Config{MaxRows: maxShown}, col)
		sh.pins = nil // pins belong to the previous column
		fmt.Fprintf(sh.out, "built %s over %d values", col.Name(), len(sh.values))
		if k := col.Shards(); k > 1 {
			fmt.Fprintf(sh.out, " (%d shards)", k)
		}
		fmt.Fprintln(sh.out)
		return nil
	case "select":
		if sh.col == nil {
			return fmt.Errorf("no column: run 'build' first")
		}
		if len(args) != 2 {
			return fmt.Errorf("select LO HI")
		}
		lo, err := atoi(args[0])
		if err != nil {
			return err
		}
		hi, err := atoi(args[1])
		if err != nil {
			return err
		}
		res, st := sh.col.Select(lo, hi)
		fmt.Fprintf(sh.out, "%d rows; read %d B (%d B delta), wrote %d B, %d splits, %d drops; %d segments\n",
			len(res), st.ReadBytes, st.DeltaReadBytes, st.WriteBytes, st.Splits, st.Drops, sh.col.SegmentCount())
		return nil
	case "count":
		if sh.col == nil {
			return fmt.Errorf("no column: run 'build' first")
		}
		if len(args) != 2 {
			return fmt.Errorf("count LO HI")
		}
		lo, err := atoi(args[0])
		if err != nil {
			return err
		}
		hi, err := atoi(args[1])
		if err != nil {
			return err
		}
		n, st := sh.col.Count(lo, hi)
		fmt.Fprintf(sh.out, "%d rows; read %d B, %d splits; %d segments\n",
			n, st.ReadBytes, st.Splits, sh.col.SegmentCount())
		return nil
	case "insert":
		if sh.col == nil {
			return fmt.Errorf("no column: run 'build' first")
		}
		if len(args) != 1 {
			return fmt.Errorf("insert V")
		}
		v, err := atoi(args[0])
		if err != nil {
			return err
		}
		st, err := sh.col.Insert(v)
		if err != nil {
			return err
		}
		ds := sh.col.DeltaStats()
		fmt.Fprintf(sh.out, "inserted %d; %d entries pending (%d B)", v, ds.Pending, ds.PendingBytes)
		if st.Merged > 0 {
			fmt.Fprintf(sh.out, "; merge-back drained %d entries", st.Merged)
		}
		fmt.Fprintln(sh.out)
		return nil
	case "update":
		if sh.col == nil {
			return fmt.Errorf("no column: run 'build' first")
		}
		if len(args) != 2 {
			return fmt.Errorf("update OLD NEW")
		}
		old, err := atoi(args[0])
		if err != nil {
			return err
		}
		new, err := atoi(args[1])
		if err != nil {
			return err
		}
		ok, st, err := sh.col.Update(old, new)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("no visible row with value %d", old)
		}
		fmt.Fprintf(sh.out, "updated %d -> %d", old, new)
		if st.Merged > 0 {
			fmt.Fprintf(sh.out, "; merge-back drained %d entries", st.Merged)
		}
		fmt.Fprintln(sh.out)
		return nil
	case "delete":
		if sh.col == nil {
			return fmt.Errorf("no column: run 'build' first")
		}
		if len(args) != 1 {
			return fmt.Errorf("delete V")
		}
		v, err := atoi(args[0])
		if err != nil {
			return err
		}
		ok, st, err := sh.col.Delete(v)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("no visible row with value %d", v)
		}
		fmt.Fprintf(sh.out, "deleted %d", v)
		if st.Merged > 0 {
			fmt.Fprintf(sh.out, "; merge-back drained %d entries", st.Merged)
		}
		fmt.Fprintln(sh.out)
		return nil
	case "sql":
		if sh.col == nil {
			return fmt.Errorf("no column: run 'build' first")
		}
		stmt := strings.TrimSpace(strings.TrimPrefix(line, "sql"))
		if stmt == "" {
			return fmt.Errorf("sql STATEMENT")
		}
		return sh.sql(stmt)
	case "merge":
		if sh.col == nil {
			return fmt.Errorf("no column: run 'build' first")
		}
		st, err := sh.col.MergeDeltas()
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "merged %d entries; wrote %d B; %d segments\n",
			st.Merged, st.WriteBytes, sh.col.SegmentCount())
		return nil
	case "delta":
		if sh.col == nil {
			return fmt.Errorf("no column: run 'build' first")
		}
		ds := sh.col.DeltaStats()
		fmt.Fprintf(sh.out, "inserts %d, updates %d, deletes %d (misses %d); pending %d (%d B); merges %d (%d entries); watermark %d\n",
			ds.Inserts, ds.Updates, ds.Deletes, ds.DeleteMisses,
			ds.Pending, ds.PendingBytes, ds.Merges, ds.MergedEntries, ds.Watermark)
		return nil
	case "wal":
		if len(args) < 1 {
			return fmt.Errorf("wal on DIR [fsync] | off | stats")
		}
		switch args[0] {
		case "on":
			if len(args) < 2 {
				return fmt.Errorf("wal on DIR [fsync]")
			}
			d := selforg.Durability{Dir: args[1]}
			if len(args) > 2 {
				if args[2] != "fsync" {
					return fmt.Errorf("wal on DIR [fsync]")
				}
				d.Fsync = true
			}
			sh.opts.Durability = d
			sh.col = nil
			mode := "no fsync: survives process death, not machine death"
			if d.Fsync {
				mode = "fsync per group commit"
			}
			fmt.Fprintf(sh.out, "durability on: WAL under %s (%s); takes effect at 'build'\n", d.Dir, mode)
			return nil
		case "off":
			sh.opts.Durability = selforg.Durability{}
			sh.col = nil
			fmt.Fprintln(sh.out, "durability off; takes effect at 'build'")
			return nil
		case "stats":
			if sh.col == nil {
				return fmt.Errorf("no column: run 'build' first")
			}
			ws, ok := sh.col.WALStats()
			if !ok {
				return fmt.Errorf("durability is not enabled ('wal on DIR', then 'build')")
			}
			fanIn := 0.0
			if ws.Batches > 0 {
				fanIn = float64(ws.Records) / float64(ws.Batches)
			}
			fmt.Fprintf(sh.out, "groups %d (%d records, %.1f per group); appends %d, fsyncs %d, %d B written; checkpoints %d, log %d B on disk; last seq %d, replayed %d\n",
				ws.Batches, ws.Records, fanIn, ws.Appends, ws.Fsyncs, ws.Bytes,
				ws.Checkpoints, ws.WALSize, ws.LastSeq, ws.Replayed)
			if ws.WriteErrors > 0 {
				fmt.Fprintf(sh.out, "write errors %d; last: %s\n", ws.WriteErrors, ws.LastError)
			}
			return nil
		default:
			return fmt.Errorf("wal on DIR [fsync] | off | stats")
		}
	case "checkpoint":
		if sh.col == nil {
			return fmt.Errorf("no column: run 'build' first")
		}
		if err := sh.col.Checkpoint(); err != nil {
			return err
		}
		ws, _ := sh.col.WALStats()
		fmt.Fprintf(sh.out, "checkpointed at seq %d; logs truncated (%d B on disk)\n", ws.LastSeq, ws.WALSize)
		return nil
	case "recover":
		if sh.col == nil {
			return fmt.Errorf("no column: run 'build' first")
		}
		if err := sh.col.Recover(); err != nil {
			return err
		}
		ws, _ := sh.col.WALStats()
		fmt.Fprintf(sh.out, "recovered: replayed %d batches on top of the last checkpoint\n", ws.Replayed)
		return nil
	case "pin":
		// A pinned view demonstrates the snapshot guarantee interactively:
		// writes, merges and bulk loads after the pin never show through
		// it, for both strategies (the persistent replica tree made
		// replication views stable across merge-backs).
		if sh.col == nil {
			return fmt.Errorf("no column: run 'build' first")
		}
		if len(args) != 1 {
			return fmt.Errorf("pin NAME")
		}
		v := sh.col.View()
		if v == nil {
			return fmt.Errorf("column does not support views")
		}
		if sh.pins == nil {
			sh.pins = make(map[string]*selforg.View)
		}
		sh.pins[args[0]] = v
		fmt.Fprintf(sh.out, "pinned view %q at watermark %d\n", args[0], v.Watermark())
		return nil
	case "view":
		if len(args) != 3 {
			return fmt.Errorf("view NAME LO HI")
		}
		v, ok := sh.pins[args[0]]
		if !ok {
			return fmt.Errorf("no pinned view %q ('pin %s' first)", args[0], args[0])
		}
		lo, err := atoi(args[1])
		if err != nil {
			return err
		}
		hi, err := atoi(args[2])
		if err != nil {
			return err
		}
		n := v.Count(lo, hi)
		fmt.Fprintf(sh.out, "%d rows as of watermark %d\n", n, v.Watermark())
		return nil
	case "unpin":
		if len(args) != 1 {
			return fmt.Errorf("unpin NAME")
		}
		if _, ok := sh.pins[args[0]]; !ok {
			return fmt.Errorf("no pinned view %q", args[0])
		}
		delete(sh.pins, args[0])
		fmt.Fprintf(sh.out, "unpinned %q\n", args[0])
		return nil
	case "layout":
		if sh.col == nil {
			return fmt.Errorf("no column")
		}
		fmt.Fprintln(sh.out, sh.col.Layout())
		return nil
	case "totals":
		if sh.col == nil {
			return fmt.Errorf("no column")
		}
		t := sh.col.Totals()
		fmt.Fprintf(sh.out, "queries %d: read %d B, wrote %d B, %d splits, %d drops, storage %d B\n",
			sh.col.Queries(), t.ReadBytes, t.WriteBytes, t.Splits, t.Drops, sh.col.StorageBytes())
		return nil
	case "metrics":
		// Columns built by the shell report into the process-wide default
		// observer; this renders its registry exactly as /metrics would.
		selforg.DefaultObserver().Registry.WritePrometheus(sh.out)
		return nil
	case "trace":
		if len(args) < 1 {
			return fmt.Errorf("trace on|off|show")
		}
		tl := selforg.DefaultObserver().Traces
		switch args[0] {
		case "on":
			sample := int64(1)
			slow := time.Duration(0)
			var err error
			if len(args) > 1 {
				if sample, err = atoi(args[1]); err != nil {
					return err
				}
			}
			if len(args) > 2 {
				ms, err := atoi(args[2])
				if err != nil {
					return err
				}
				slow = time.Duration(ms) * time.Millisecond
			}
			tl.Enable(int(sample), slow)
			fmt.Fprintf(sh.out, "tracing 1 in %d queries (slow bar %v)\n", tl.SampleN(), tl.SlowThreshold())
			return nil
		case "off":
			tl.Disable()
			fmt.Fprintln(sh.out, "tracing off")
			return nil
		case "show":
			traces := tl.Recent()
			if len(traces) == 0 {
				fmt.Fprintln(sh.out, "no traces (run 'trace on', then some queries)")
				return nil
			}
			for _, t := range traces {
				slowMark := ""
				if t.Slow {
					slowMark = " SLOW"
				}
				fmt.Fprintf(sh.out, "#%d %s/%s shard %d [%d, %d]: total %v (lock wait %v, route %v, scan %v, overlay %v, adapt %v); read %d B, %d rows, %d splits%s\n",
					t.Seq, t.Op, t.Strategy, t.Shard, t.Lo, t.Hi,
					time.Duration(t.TotalNs), time.Duration(t.LockWaitNs), time.Duration(t.RouteNs), time.Duration(t.ScanNs),
					time.Duration(t.OverlayNs), time.Duration(t.AdaptNs),
					t.ReadBytes, t.Rows, t.Splits, slowMark)
			}
			return nil
		default:
			return fmt.Errorf("trace on|off|show")
		}
	case "events":
		ev := selforg.DefaultObserver().Events
		events := ev.Recent()
		if len(events) == 0 {
			fmt.Fprintln(sh.out, "no adaptation events yet")
			return nil
		}
		for _, e := range events {
			fmt.Fprintf(sh.out, "#%d %s %s/shard %d", e.Seq, e.Kind, e.Strategy, e.Shard)
			if e.Lo != 0 || e.Hi != 0 {
				fmt.Fprintf(sh.out, " [%d, %d]", e.Lo, e.Hi)
			}
			if e.Before != 0 || e.After != 0 {
				fmt.Fprintf(sh.out, " %d -> %d segments", e.Before, e.After)
			}
			if e.Bytes != 0 {
				fmt.Fprintf(sh.out, " (%d B)", e.Bytes)
			}
			if e.Note != "" {
				fmt.Fprintf(sh.out, " %s", e.Note)
			}
			fmt.Fprintln(sh.out)
		}
		fmt.Fprintf(sh.out, "%d events total (ring holds the most recent %d)\n", ev.Total(), len(events))
		return nil
	case "glue":
		if sh.col == nil {
			return fmt.Errorf("no column")
		}
		if len(args) != 1 {
			return fmt.Errorf("glue MINBYTES")
		}
		minBytes, err := atoi(args[0])
		if err != nil {
			return err
		}
		rewritten, ok := sh.col.GlueSmall(minBytes)
		if !ok {
			return fmt.Errorf("gluing applies to segmentation columns only")
		}
		fmt.Fprintf(sh.out, "rewrote %d B; %d segments\n", rewritten, sh.col.SegmentCount())
		return nil
	default:
		return fmt.Errorf("unknown command %q ('help' lists commands)", cmd)
	}
}

// sql runs one statement through the server tier's statement path
// (server.Exec: normalize → plan cache → parse → bind → run) over the
// shell's column, served as sys.P(v); a leading EXPLAIN prints the plan
// a SELECT binds to (server.Explain) instead of running it.
func (sh *shell) sql(stmt string) error {
	if len(stmt) > 8 && strings.EqualFold(stmt[:8], "EXPLAIN ") {
		plan, err := sh.srv.Explain(stmt[8:])
		if err != nil {
			return err
		}
		fmt.Fprintln(sh.out, plan)
		return nil
	}
	res, err := sh.srv.Exec("", stmt)
	if err != nil {
		return err
	}
	switch res.Op {
	case "count":
		fmt.Fprintf(sh.out, "%d rows; read %d B\n", res.Count, res.Stats.ReadBytes)
	case "sum":
		fmt.Fprintf(sh.out, "sum %d over %d rows; read %d B\n", res.Sum, res.Count, res.Stats.ReadBytes)
	case "select":
		for _, v := range res.Rows.Values() {
			fmt.Fprintf(sh.out, "[ %d ]\n", v)
		}
		fmt.Fprintf(sh.out, "# %d rows; read %d B\n", res.Count, res.Stats.ReadBytes)
	default: // insert, update, delete
		rows := "rows"
		if res.Count == 1 {
			rows = "row"
		}
		fmt.Fprintf(sh.out, "%d %s %sed\n", res.Count, rows, strings.TrimSuffix(res.Op, "e"))
	}
	return nil
}

// maxShown caps the rows a SELECT prints; the count line always carries
// the full cardinality.
const maxShown = 32

func atoi(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v, nil
}
