package selforg_test

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"selforg"
	"selforg/internal/compress"
	"selforg/internal/domain"
	"selforg/internal/server"
	"selforg/internal/workload"
)

var updateCostTable = flag.Bool("update", false, "rewrite testdata/cost_table.golden from the current output")

const costTableGolden = "testdata/cost_table.golden"

// raceEnabled is set by race_test.go under -race, which changes what
// allocates.
var raceEnabled bool

// costRow is one operation × configuration of the cost table. setup
// builds the state outside the measurement and returns the operation;
// run(i) is the i-th measured call. run(-1) is called warm times before
// measuring, so a cached plan, a converged layout, a refilled buffer
// pool or a goroutine's free-list entry is part of the state, not of
// the cost.
type costRow struct {
	name  string
	ops   int
	warm  int
	setup func(t *testing.T) costOp
	// maxAllocs, when > 0, is a fixed bar on whole allocations per op
	// (as testing.AllocsPerRun reads them), checked beside the golden.
	maxAllocs float64
}

// costOp is what a row measures: run returns the Stats of one call, and
// col (when set) is the column whose DeltaStats the calls may move.
type costOp struct {
	run func(i int) selforg.Stats
	col *selforg.Column
}

// costLine is one measured row: allocations and bytes per op are
// ceilings, every other field must match exactly.
type costLine struct {
	name                    string
	ops                     int
	allocs, bytes           float64
	rows, read, write       int64
	splits, recodes, merged int64
	deltaRead, pubs, merges int64
}

func (l costLine) String() string {
	return fmt.Sprintf("%-34s %5d %9.2f %10.0f %8d %11d %10d %6d %7d %6d %9d %4d %6d",
		l.name, l.ops, l.allocs, l.bytes, l.rows, l.read, l.write,
		l.splits, l.recodes, l.merged, l.deltaRead, l.pubs, l.merges)
}

const costHeader = "# row                                ops allocs/op       B/op     rows      read_B    write_B splits recodes merged delta_B pubs merges"

// TestCostTable pins what each operation on the engine's hot paths
// costs in units that do not drift with the host or the code layout:
// heap allocations and bytes per op (ceilings), and the exact Stats and
// DeltaStats counters the ops move (result rows, bytes read and
// written, splits, recodes, merged entries, delta overlay bytes,
// snapshot publications, merge-backs). Each row is shaped like one of
// the benchmark's workloads (serve_hot, scan_wide, mixed_rw,
// adapt_cold) or one of the go-bench smoke patterns, in-process,
// single-client and seeded. Measurements run at GOMAXPROCS 1 with the
// garbage collector off, after two collections have emptied every
// sync.Pool, so pool refills are counted the same way on every run and
// at every core count. What allocates is the toolchain's decision as
// much as the program's, so the ceilings are checked only under the Go
// release that wrote the golden (its "# toolchain" line); the counters
// are checked under every release. A row that moves is explained in
// CHANGES.md and rewritten with
//
//	go test -run TestCostTable -update .
func TestCostTable(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	var got []costLine
	for _, r := range costRows {
		t.Run(r.name, func(t *testing.T) {
			l := measureCost(r, r.setup(t))
			if r.maxAllocs > 0 && math.Floor(l.allocs) > r.maxAllocs {
				t.Errorf("%.0f allocations per op, want at most %.0f", math.Floor(l.allocs), r.maxAllocs)
			}
			got = append(got, l)
		})
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "# toolchain %s\n%s\n", goRelease(), costHeader)
	for _, l := range got {
		b.WriteString(l.String() + "\n")
	}
	if *updateCostTable {
		if err := os.WriteFile(costTableGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	release, want, err := readCostTable(costTableGolden)
	if err != nil {
		t.Fatal(err)
	}
	ceilings := release == goRelease()
	if !ceilings {
		t.Logf("allocation ceilings were written by %s and are not checked under %s", release, goRelease())
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d rows, the table %d; rewrite it with -update", costTableGolden, len(want), len(got))
	}
	for _, g := range got {
		w, ok := want[g.name]
		counters := g
		counters.allocs, counters.bytes = w.allocs, w.bytes
		switch {
		case !ok:
			t.Errorf("row %s is not in %s; rewrite it with -update", g.name, costTableGolden)
		case counters != w:
			t.Errorf("counters moved:\n got %s\nwant %s", g, w)
		case ceilings && (g.allocs > w.allocs || g.bytes > w.bytes):
			t.Errorf("over its ceiling:\n got %s\nwant %s", g, w)
		}
	}
	if t.Failed() {
		t.Logf("current table:\n%s", b.String())
	}
}

// goRelease is the running toolchain's major release, e.g. "go1.24".
func goRelease() string {
	v := runtime.Version()
	if i := strings.Index(v, "."); i >= 0 {
		if j := strings.Index(v[i+1:], "."); j >= 0 {
			return v[:i+1+j]
		}
	}
	return v
}

// measureCost runs one row on one P, so that which P's sync.Pool slot,
// goroutine free list or sudog cache an op finds filled does not depend
// on the scheduler: two collections empty the pools, the collector is
// switched off, the warm-up calls run, and the measured calls follow
// between two memory-statistics reads.
func measureCost(r costRow, op costOp) costLine {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range r.warm {
		op.run(-1)
	}
	var d0, d1 selforg.DeltaStats
	if op.col != nil {
		d0 = op.col.DeltaStats()
	}
	var sum selforg.Stats
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < r.ops; i++ {
		sum.Add(op.run(i))
	}
	runtime.ReadMemStats(&m1)
	if op.col != nil {
		d1 = op.col.DeltaStats()
	}
	n := float64(r.ops)
	return costLine{
		name: r.name, ops: r.ops,
		allocs: math.Round(float64(m1.Mallocs-m0.Mallocs)/n*100) / 100,
		bytes:  math.Round(float64(m1.TotalAlloc-m0.TotalAlloc) / n),
		rows:   sum.ResultCount, read: sum.ReadBytes, write: sum.WriteBytes,
		splits: int64(sum.Splits), recodes: int64(sum.Recodes), merged: int64(sum.Merged),
		deltaRead: sum.DeltaReadBytes,
		pubs:      d1.Publications - d0.Publications, merges: d1.Merges - d0.Merges,
	}
}

// readCostTable parses the golden file: the toolchain release that
// wrote it and its rows by name.
func readCostTable(path string) (release string, rows map[string]costLine, err error) {
	f, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	rows = make(map[string]costLine)
	for _, line := range strings.Split(string(f), "\n") {
		if r, ok := strings.CutPrefix(line, "# toolchain "); ok {
			release = r
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var l costLine
		if _, err := fmt.Sscan(line, &l.name, &l.ops, &l.allocs, &l.bytes, &l.rows, &l.read, &l.write,
			&l.splits, &l.recodes, &l.merged, &l.deltaRead, &l.pubs, &l.merges); err != nil {
			return "", nil, fmt.Errorf("%s: row %q: %v", path, line, err)
		}
		rows[l.name] = l
	}
	return release, rows, nil
}

// costColumn builds a column over n seeded uniform values in [lo, hi].
// It scans serially unless the row sets Parallelism: the adaptive
// fan-out follows GOMAXPROCS, and the table must not.
func costColumn(t *testing.T, n int, lo, hi, seed int64, o selforg.Options) (*selforg.Column, []int64) {
	t.Helper()
	o.Parallelism = cmp.Or(o.Parallelism, 1)
	vals := seedVals(seed, n, lo, hi)
	col, err := selforg.New(selforg.Interval{Lo: lo, Hi: hi}, append([]int64(nil), vals...), o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(col.Close)
	return col, vals
}

// converge runs q uniform ranges of the given width over [lo, hi].
func converge(col *selforg.Column, q int, lo, hi, width, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < q; i++ {
		a := lo + r.Int63n(hi-lo+1-width)
		col.Count(a, a+width-1)
	}
}

func selectRows(col *selforg.Column, lo, hi int64) func(int) selforg.Stats {
	return func(int) selforg.Stats { _, st := col.SelectRows(lo, hi); return st }
}

func countRange(col *selforg.Column, lo, hi int64) func(int) selforg.Stats {
	return func(int) selforg.Stats { _, st := col.Count(lo, hi); return st }
}

// serveHot is serve_hot's column: Replication under APM, converged by a
// Zipf stream of tiny ranges.
func serveHot(t *testing.T) *selforg.Column {
	const hi = 1<<31 - 1
	col, _ := costColumn(t, 200_000, 0, hi, 5, selforg.Options{Strategy: selforg.Replication, Model: selforg.APM})
	dom := domain.NewRange(0, hi)
	gen := workload.NewZipf(dom, workload.WidthForSelectivity(dom, 0.0002),
		workload.ZipfBuckets, workload.ZipfS, workload.ZipfV, 6)
	for i := 0; i < 1000; i++ {
		q := gen.Next()
		col.Count(q.Lo, q.Hi)
	}
	return col
}

// scanWide is scan_wide's column: 4M duplicate-heavy values in [0,
// 2^20), encoded segments under APM 256 KB–1 MB, converged by wide
// uniform ranges.
func scanWide(t *testing.T) *selforg.Column {
	col, _ := costColumn(t, 4_000_000, 0, 1<<20-1, 21, selforg.Options{Model: selforg.APM,
		APMMin: 256 << 10, APMMax: 1 << 20, Compression: selforg.CompressionAuto})
	converge(col, 200, 0, 1<<20-1, 1<<20/20, 22)
	return col
}

// largeScan is the LargeScan and ScanObs benchmarks' column: uniform
// 8-byte values under APM 64 KB–256 KB, converged by 5% ranges.
func largeScan(t *testing.T, o selforg.Options) *selforg.Column {
	const hi = 1<<24 - 1
	o.Model, o.ElemSize, o.APMMin, o.APMMax = selforg.APM, 8, 64<<10, 256<<10
	col, _ := costColumn(t, 500_000, 0, hi, 29, o)
	converge(col, 100, 0, hi, (hi+1)/20, 31)
	return col
}

// pointInserts is a mixed_rw-shaped write stream without merge-backs:
// uniform point inserts into a 100K-value column.
func pointInserts(shards int) func(t *testing.T) costOp {
	return func(t *testing.T) costOp {
		col, _ := costColumn(t, 100_000, 0, 999_999, 1, selforg.Options{Shards: shards, DeltaMaxBytes: -1})
		r := rand.New(rand.NewSource(2))
		return costOp{col: col, run: func(int) selforg.Stats {
			st, err := col.Insert(r.Int63n(1_000_000))
			if err != nil {
				t.Fatal(err)
			}
			return st
		}}
	}
}

// execRows measures a cached server.Exec of stmt(i) over a 100K-value
// column; stmt(-1) is the warm-up call that compiles the plan. The
// statements are built before the measurement, so formatting them is
// not part of the cost.
func execRows(stmt func(vals []int64, i int) string) func(t *testing.T) costOp {
	return func(t *testing.T) costOp {
		col, vals := costColumn(t, 100_000, 0, 999_999, 41, selforg.Options{DeltaMaxBytes: -1})
		s := server.NewOver(server.Config{Observer: selforg.NewObserver()}, col)
		t.Cleanup(s.Close)
		stmts := make([]string, execOps+1)
		for i := range stmts {
			stmts[i] = stmt(vals, i-1)
		}
		return costOp{col: col, run: func(i int) selforg.Stats {
			res, err := s.Exec("", stmts[i+1])
			if err != nil {
				t.Fatal(err)
			}
			if !res.Cached && i >= 0 {
				t.Fatalf("%q missed the plan cache", stmts[i+1])
			}
			return res.Stats
		}}
	}
}

// execOps is the number of measured calls of each exec/* row.
const execOps = 200

var costRows = []costRow{
	// serve_hot: a converged Replication column answers tiny ranges from
	// its replicas.
	{name: "serve_hot/point_select", ops: 200, warm: 1, setup: func(t *testing.T) costOp {
		col := serveHot(t)
		return costOp{col: col, run: selectRows(col, 1<<30, 1<<30+400_000)}
	}},
	{name: "serve_hot/point_count", ops: 200, warm: 1, setup: func(t *testing.T) costOp {
		col := serveHot(t)
		return costOp{col: col, run: countRange(col, 1<<30, 1<<30+400_000)}
	}},
	// scan_wide: COUNT 20 %, SUM 5 %, SELECT 0.5 % and 5 % over the
	// converged encoded column. The 5 % SELECT (~200 K rows) allocates
	// about twice its answer's bytes, a known cost pinned as measured.
	{name: "scan_wide/count_20pct", ops: 20, warm: 1, setup: func(t *testing.T) costOp {
		col := scanWide(t)
		return costOp{col: col, run: countRange(col, 300_000, 300_000+1<<20/5-1)}
	}},
	{name: "scan_wide/sum_5pct", ops: 20, warm: 1, setup: func(t *testing.T) costOp {
		col := scanWide(t)
		return costOp{col: col, run: func(int) selforg.Stats {
			_, _, st := col.Sum(300_000, 300_000+1<<20/20-1)
			return st
		}}
	}},
	{name: "scan_wide/select_0.5pct", ops: 20, warm: 1, setup: func(t *testing.T) costOp {
		col := scanWide(t)
		return costOp{col: col, run: selectRows(col, 300_000, 300_000+1<<20/200-1)}
	}},
	{name: "scan_wide/select_5pct", ops: 10, warm: 1, setup: func(t *testing.T) costOp {
		col := scanWide(t)
		return costOp{col: col, run: selectRows(col, 300_000, 300_000+1<<20/20-1)}
	}},
	// mixed_rw: in-memory point inserts, a durable single-writer write
	// with fsync off, an overlay scan over sorted delta runs and a
	// merge-back. A point insert at one shard makes at most 5
	// allocations: the delta entry, its live-insert index slot and the
	// snapshot the store publishes, plus the router's result slice and
	// its one sub-batch buffer.
	{name: "mixed_rw/insert_shards1", ops: 1000, warm: 1, setup: pointInserts(1), maxAllocs: 5},
	{name: "mixed_rw/insert_shards4", ops: 1000, warm: 1, setup: pointInserts(4)},
	{name: "mixed_rw/durable_insert_shards4", ops: 300, warm: 100, setup: func(t *testing.T) costOp {
		col, _ := costColumn(t, 100_000, 0, 1<<30-1, 3, selforg.Options{Model: selforg.APM,
			Compression: selforg.CompressionAuto, Shards: 4, DeltaMaxBytes: 4 << 10,
			Durability: selforg.Durability{Dir: t.TempDir()}})
		r := rand.New(rand.NewSource(4))
		return costOp{col: col, run: func(int) selforg.Stats {
			st, err := col.Insert(r.Int63n(1 << 30))
			if err != nil {
				t.Fatal(err)
			}
			return st
		}}
	}},
	{name: "mixed_rw/overlay_scan_sorted_runs", ops: 50, warm: 1, setup: func(t *testing.T) costOp {
		col, _ := costColumn(t, 20_000, 0, 99_999, 2, selforg.Options{Model: selforg.None, DeltaMaxBytes: -1})
		for _, v := range seedVals(3, 4_096, 0, 99_999) {
			if _, err := col.Insert(v); err != nil {
				t.Fatal(err)
			}
		}
		return costOp{col: col, run: func(i int) selforg.Stats {
			a := int64(max(i, 0)) * 1_000
			_, st := col.SelectRows(a, a+2_000)
			return st
		}}
	}},
	{name: "mixed_rw/merge_back_1000", ops: 1, setup: func(t *testing.T) costOp {
		col, _ := costColumn(t, 100_000, 0, 999_999, 1, selforg.Options{DeltaMaxBytes: -1})
		for _, v := range seedVals(4, 1_000, 0, 999_999) {
			if _, err := col.Insert(v); err != nil {
				t.Fatal(err)
			}
		}
		return costOp{col: col, run: func(int) selforg.Stats {
			st, err := col.MergeDeltas()
			if err != nil {
				t.Fatal(err)
			}
			return st
		}}
	}},
	// adapt_cold: the first 100 queries of a cold round on a fresh
	// unorganized column (80 % SELECT, 20 % COUNT over two 2 % hot
	// areas); its recodes outnumber its splits, a known cost pinned as
	// measured. And one Auto encode of an APM-sized segment.
	{name: "adapt_cold/first_100_queries", ops: 1, setup: func(t *testing.T) costOp {
		const hi = 1<<30 - 1
		col, _ := costColumn(t, 1_000_000, 0, hi, 1, selforg.Options{Model: selforg.APM, Compression: selforg.CompressionAuto})
		qs := coldQueries(domain.NewRange(0, hi), 100, 2)
		mix := rand.New(rand.NewSource(3))
		count := make([]bool, len(qs))
		for i := range count {
			count[i] = mix.Intn(5) == 0
		}
		return costOp{col: col, run: func(int) selforg.Stats {
			var sum selforg.Stats
			for j, q := range qs {
				if count[j] {
					_, st := col.Count(q.Lo, q.Hi)
					sum.Add(st)
				} else {
					_, st := col.SelectRows(q.Lo, q.Hi)
					sum.Add(st)
				}
			}
			return sum
		}}
	}},
	{name: "adapt_cold/encode_3000", ops: 50, warm: 1, setup: func(t *testing.T) costOp {
		vals := seedVals(7, 3_000, 0, 1<<30-1)
		codec := compress.NewCodec(compress.Auto, 4)
		return costOp{run: func(int) selforg.Stats {
			return selforg.Stats{WriteBytes: codec.Encode(vals).StoredBytes()}
		}}
	}},
	// LargeScanSerial / LargeScanParallel4: one 25 % scan, serial and
	// fanned out over four workers; the counters must agree.
	{name: "scan/serial", ops: 20, warm: 1, setup: func(t *testing.T) costOp {
		col := largeScan(t, selforg.Options{Parallelism: 1})
		return costOp{col: col, run: selectRows(col, 1<<22, 1<<23)}
	}},
	{name: "scan/parallel4", ops: 20, warm: 20, setup: func(t *testing.T) costOp {
		col := largeScan(t, selforg.Options{Parallelism: 4})
		return costOp{col: col, run: selectRows(col, 1<<22, 1<<23)}
	}},
	// ScanObsOff / ScanObsOn / traced: the same scan detached from any
	// observer, attached with counters only, and with per-query tracing.
	{name: "scan/observer_off", ops: 20, warm: 1, setup: func(t *testing.T) costOp {
		col := largeScan(t, selforg.Options{Observability: selforg.Observability{Disable: true}})
		return costOp{col: col, run: selectRows(col, 1<<22, 1<<23)}
	}},
	{name: "scan/observer_on", ops: 20, warm: 1, setup: func(t *testing.T) costOp {
		col := largeScan(t, selforg.Options{Observability: selforg.Observability{Observer: selforg.NewObserver()}})
		return costOp{col: col, run: selectRows(col, 1<<22, 1<<23)}
	}},
	{name: "scan/traced", ops: 20, warm: 1, setup: func(t *testing.T) costOp {
		col := largeScan(t, selforg.Options{Observability: selforg.Observability{Observer: selforg.NewObserver(), Trace: true}})
		return costOp{col: col, run: selectRows(col, 1<<22, 1<<23)}
	}},
	// A cached server.Exec of each statement shape.
	{name: "exec/select", ops: execOps, warm: 100, setup: execRows(func(_ []int64, i int) string {
		return "SELECT v FROM P WHERE v BETWEEN 500000 AND 502000"
	})},
	{name: "exec/count", ops: execOps, warm: 1, setup: execRows(func(_ []int64, i int) string {
		return "SELECT COUNT(*) FROM P WHERE v BETWEEN 100000 AND 300000"
	})},
	{name: "exec/sum", ops: execOps, warm: 1, setup: execRows(func(_ []int64, i int) string {
		return "SELECT SUM(v) FROM P WHERE v BETWEEN 100000 AND 300000"
	})},
	{name: "exec/insert", ops: execOps, warm: 1, setup: execRows(func(_ []int64, i int) string {
		return fmt.Sprintf("INSERT INTO P VALUES (%d)", 1000*(i+1))
	})},
	{name: "exec/update", ops: execOps, warm: 1, setup: execRows(func(vals []int64, i int) string {
		v := vals[i+1]
		return fmt.Sprintf("UPDATE P SET v = %d WHERE v = %d", (v+1)%1_000_000, v)
	})},
	{name: "exec/delete", ops: execOps, warm: 1, setup: execRows(func(vals []int64, i int) string {
		return fmt.Sprintf("DELETE FROM P WHERE v = %d", vals[i+1])
	})},
}

// coldQueries is the start of one adapt_cold round: a phase's two hot
// areas, each 2 % of the domain in an eighth of its own, with 1 %
// ranges.
func coldQueries(dom domain.Range, n int, seed int64) []domain.Range {
	place := rand.New(rand.NewSource(seed))
	slots := place.Perm(8)
	slot, area := dom.Width()/8, dom.Width()/50
	spots := make([]workload.HotSpot, 2)
	for i := range spots {
		lo := dom.Lo + int64(slots[i])*slot + place.Int63n(slot-area)
		spots[i] = workload.HotSpot{Area: domain.NewRange(lo, lo+area-1), Weight: 1}
	}
	gen := workload.NewSkewed(dom, workload.WidthForSelectivity(dom, 0.01), spots, seed)
	qs := make([]domain.Range, n)
	for i := range qs {
		qs[i] = gen.Next().Range()
	}
	return qs
}
