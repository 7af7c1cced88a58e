package selforg_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"selforg"
	"selforg/internal/domain"
	"selforg/internal/sim"
	"selforg/internal/workload"
)

// ExampleNew builds an adaptive column and shows a query both answering
// and reorganizing.
func ExampleNew() {
	// A dense column: value i at position i, 1 accounted byte each.
	values := make([]int64, 1000)
	for i := range values {
		values[i] = int64(i)
	}
	col, err := selforg.New(selforg.Interval{Lo: 0, Hi: 999}, values, selforg.Options{
		Strategy: selforg.Segmentation,
		Model:    selforg.APM,
		APMMin:   100,
		APMMax:   350,
		ElemSize: 1,
	})
	if err != nil {
		panic(err)
	}
	res, st := col.Select(300, 599)
	fmt.Printf("rows=%d splits=%d segments=%d\n", len(res), st.Splits, col.SegmentCount())

	// The same query again is now confined to one segment.
	_, st = col.Select(300, 599)
	fmt.Printf("second read=%dB of %dB column\n", st.ReadBytes, col.StorageBytes())
	// Output:
	// rows=300 splits=1 segments=3
	// second read=300B of 1000B column
}

// ExampleColumn_Layout shows the replica tree of an adaptive-replication
// column, with virtual segments marked.
func ExampleColumn_Layout() {
	values := make([]int64, 1000)
	for i := range values {
		values[i] = int64(i)
	}
	col, err := selforg.New(selforg.Interval{Lo: 0, Hi: 999}, values, selforg.Options{
		Strategy: selforg.Replication,
		Model:    selforg.APM,
		APMMin:   100,
		APMMax:   350,
		ElemSize: 1,
	})
	if err != nil {
		panic(err)
	}
	col.Select(300, 599) // the selection is kept as a replica
	fmt.Print(col.Layout())
	// Output:
	// mat [0, 999] #1000
	//   vir [0, 299] #300
	//   mat [300, 599] #300
	//   vir [600, 999] #400
}

// ExampleColumn_BulkLoad appends a batch while preserving the adaptive
// organization.
func ExampleColumn_BulkLoad() {
	values := make([]int64, 100)
	for i := range values {
		values[i] = int64(i)
	}
	col, _ := selforg.New(selforg.Interval{Lo: 0, Hi: 99}, values, selforg.Options{
		Strategy: selforg.Segmentation,
		Model:    selforg.None,
		ElemSize: 1,
	})
	if _, err := col.BulkLoad([]int64{50, 51}); err != nil {
		panic(err)
	}
	n, _ := col.Count(50, 51)
	fmt.Println(n)
	// Output:
	// 4
}

// Example_quickstart builds a self-organizing column, runs a few range
// queries and watches the layout converge. It mirrors the paper's
// headline scenario: a read-mostly column (§1) whose physical
// organization adapts to the query load — no DBA, no CREATE INDEX, the
// queries themselves reorganize the data.
func Example_quickstart() {
	// A column of 200K 4-byte values over a 2M-value domain.
	const (
		n      = 200_000
		domain = 2_000_000
	)
	rng := rand.New(rand.NewSource(7))
	values := make([]int64, n)
	for i := range values {
		values[i] = rng.Int63n(domain)
	}

	col, err := selforg.New(selforg.Interval{Lo: 0, Hi: domain - 1}, values, selforg.Options{
		Strategy: selforg.Segmentation, // reorganize in place (§4)
		Model:    selforg.APM,          // deterministic model, bounds below (§3.2.2)
		APMMin:   8 << 10,              // segments never smaller than 8 KB ...
		APMMax:   32 << 10,             // ... and queried segments never larger than 32 KB
		// Two more knobs worth knowing:
		//   Compression: selforg.CompressionAuto — let the advisor pick
		//     each segment's storage encoding as queries materialize it
		//     (results identical, storage and read volumes shrink);
		//   Parallelism: 4 — fan one query's segment scans across
		//     workers; a Column is safe for concurrent use either way.
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("column: %s, %d values, storage %d KB\n\n",
		col.Name(), n, col.StorageBytes()>>10)

	// A workload with a hot range: the same analytical window queried
	// repeatedly, plus background noise.
	hotLo, hotHi := int64(800_000), int64(899_999)
	for q := 1; q <= 12; q++ {
		var lo, hi int64
		if q%2 == 1 {
			lo, hi = hotLo, hotHi
		} else {
			lo = rng.Int63n(domain - 150_000)
			hi = lo + 149_999
		}
		res, st := col.Select(lo, hi)
		fmt.Printf("q%02d select [%7d, %7d]: %6d rows, read %4d KB, wrote %4d KB, %d splits\n",
			q, lo, hi, len(res), st.ReadBytes>>10, st.WriteBytes>>10, st.Splits)
	}

	fmt.Printf("\nafter %d queries: %d segments, total read %d KB, total written %d KB\n",
		col.Queries(), col.SegmentCount(),
		col.Totals().ReadBytes>>10, col.Totals().WriteBytes>>10)

	// The first hot-range query scanned the whole column (800 KB); by now
	// the same query touches only the segments overlapping the range.
	_, st := col.Select(hotLo, hotHi)
	fmt.Printf("hot range now reads %d KB per query (column is %d KB)\n",
		st.ReadBytes>>10, col.StorageBytes()>>10)
	// Output:
	// column: APM 8.00KB-32.00KB Segm, 200000 values, storage 781 KB
	//
	// q01 select [ 800000,  899999]:  10079 rows, read  781 KB, wrote  781 KB, 1 splits
	// q02 select [1732239, 1882238]:  15015 rows, read  430 KB, wrote  430 KB, 1 splits
	// q03 select [ 800000,  899999]:  10079 rows, read   39 KB, wrote    0 KB, 0 splits
	// q04 select [1513291, 1663290]:  15192 rows, read  325 KB, wrote  325 KB, 1 splits
	// q05 select [ 800000,  899999]:  10079 rows, read   39 KB, wrote    0 KB, 0 splits
	// q06 select [1483612, 1633611]:  15157 rows, read  298 KB, wrote  298 KB, 2 splits
	// q07 select [ 800000,  899999]:  10079 rows, read   39 KB, wrote    0 KB, 0 splits
	// q08 select [ 795530,  945529]:  14958 rows, read  578 KB, wrote  538 KB, 2 splits
	// q09 select [ 800000,  899999]:  10079 rows, read   39 KB, wrote    0 KB, 0 splits
	// q10 select [1540975, 1690974]:  15097 rows, read   86 KB, wrote   74 KB, 2 splits
	// q11 select [ 800000,  899999]:  10079 rows, read   39 KB, wrote    0 KB, 0 splits
	// q12 select [ 157436,  307435]:  14976 rows, read  156 KB, wrote  156 KB, 1 splits
	//
	// after 12 queries: 15 segments, total read 2852 KB, total written 2605 KB
	// hot range now reads 39 KB per query (column is 781 KB)
}

// Example_replication walks through the paper's Figure 4: the replica
// tree of adaptive replication (§5) — materialized replicas of query
// results, virtual complement segments, and the storage release when a
// fully replicated parent is dropped (Algorithm 5).
func Example_replication() {
	// A dense 1000-value column over [0, 999], 1 byte per value, so the
	// numbers are easy to follow (the same setup as the core tests'
	// Figure-3/4 walkthrough).
	values := make([]int64, 1000)
	for i := range values {
		values[i] = int64(i)
	}
	col, err := selforg.New(selforg.Interval{Lo: 0, Hi: 999}, values, selforg.Options{
		Strategy: selforg.Replication,
		Model:    selforg.APM,
		APMMin:   100,
		APMMax:   350,
		ElemSize: 1,
	})
	if err != nil {
		panic(err)
	}
	show := func(label string) {
		fmt.Printf("--- %s ---\n", label)
		fmt.Printf("storage %4d B, %d materialized + %d virtual segments, depth %d\n",
			col.StorageBytes(), col.SegmentCount(), col.VirtualCount(), col.TreeDepth())
		fmt.Println(col.Layout())
	}

	show("initial state: the column is the replica-tree root")

	// Q1 [300,599]: the selection is kept as a replica; two virtual
	// segments complete the domain (Figure 4, after Q1).
	_, st := col.Select(300, 599)
	fmt.Printf("Q1 [300,599]: read %d B, wrote %d B (only the selection!)\n", st.ReadBytes, st.WriteBytes)
	show("after Q1: one replica, two virtual complements")

	// Q2 [100,349] overlaps a virtual segment: the whole column is
	// scanned again, and the virtual piece [100,299] materializes.
	_, st = col.Select(100, 349)
	fmt.Printf("Q2 [100,349]: read %d B (full scan — virtual segment hit), wrote %d B\n",
		st.ReadBytes, st.WriteBytes)
	show("after Q2")

	// Q3 [600,619] hits the virtual tail: case 4 splits it at the mean
	// and materializes the lower super-set of the selection.
	_, st = col.Select(600, 619)
	fmt.Printf("Q3 [600,619]: read %d B, wrote %d B\n", st.ReadBytes, st.WriteBytes)
	show("after Q3 (storage is now column + 3 replicas)")

	// Sweep the remaining virtual ranges: once every child of the root is
	// materialized, the root is dropped and its storage released —
	// the big drops of Figure 8.
	fmt.Println(">>> sweeping the remaining virtual ranges ...")
	var drops int
	for _, q := range [][2]int64{{0, 99}, {600, 999}, {800, 999}, {350, 599}, {100, 299}, {620, 799}} {
		_, st = col.Select(q[0], q[1])
		drops += st.Drops
	}
	fmt.Printf("drops so far: %d\n", drops)
	show("after the sweep: root dropped, flat forest, no virtual segments")

	fmt.Printf("final storage %d B = column size — the tree converged to the\n", col.StorageBytes())
	fmt.Println("segment list adaptive segmentation would have produced (§6.1.3).")
	// Output:
	// --- initial state: the column is the replica-tree root ---
	// storage 1000 B, 1 materialized + 0 virtual segments, depth 1
	// mat [0, 999] #1000
	//
	// Q1 [300,599]: read 1000 B, wrote 300 B (only the selection!)
	// --- after Q1: one replica, two virtual complements ---
	// storage 1300 B, 2 materialized + 2 virtual segments, depth 2
	// mat [0, 999] #1000
	//   vir [0, 299] #300
	//   mat [300, 599] #300
	//   vir [600, 999] #400
	//
	// Q2 [100,349]: read 1000 B (full scan — virtual segment hit), wrote 200 B
	// --- after Q2 ---
	// storage 1500 B, 3 materialized + 3 virtual segments, depth 3
	// mat [0, 999] #1000
	//   vir [0, 299] #300
	//     vir [0, 99] #100
	//     mat [100, 299] #200
	//   mat [300, 599] #300
	//   vir [600, 999] #400
	//
	// Q3 [600,619]: read 1000 B, wrote 200 B
	// --- after Q3 (storage is now column + 3 replicas) ---
	// storage 1700 B, 4 materialized + 4 virtual segments, depth 3
	// mat [0, 999] #1000
	//   vir [0, 299] #300
	//     vir [0, 99] #100
	//     mat [100, 299] #200
	//   mat [300, 599] #300
	//   vir [600, 999] #400
	//     mat [600, 799] #200
	//     vir [800, 999] #200
	//
	// >>> sweeping the remaining virtual ranges ...
	// drops so far: 1
	// --- after the sweep: root dropped, flat forest, no virtual segments ---
	// storage 1000 B, 5 materialized + 0 virtual segments, depth 1
	// mat [0, 99] #100
	// mat [100, 299] #200
	// mat [300, 599] #300
	// mat [600, 799] #200
	// mat [800, 999] #200
	//
	// final storage 1000 B = column size — the tree converged to the
	// segment list adaptive segmentation would have produced (§6.1.3).
}

// Example_changingWorkload demonstrates adaptivity under a shifting
// workload — the scenario of the paper's Figures 15/16: four phases of
// queries, each focused on a different region of the domain. Every
// phase shift triggers a burst of reorganization that quickly evens out.
func Example_changingWorkload() {
	dom := domain.NewRange(0, 999_999)
	values := sim.GenerateColumn(100_000, dom, 11)

	col, err := selforg.New(selforg.Interval{Lo: dom.Lo, Hi: dom.Hi}, values, selforg.Options{
		Strategy: selforg.Segmentation,
		Model:    selforg.APM,
		APMMin:   3 << 10,
		APMMax:   12 << 10,
	})
	if err != nil {
		panic(err)
	}

	// Four access regions, 30 queries each, like the paper's changing
	// workload (scaled from 4x50).
	centers := []int64{100_000, 400_000, 700_000, 950_000}
	phases := make([]workload.Generator, len(centers))
	for i, c := range centers {
		area := domain.NewRange(c-20_000, c+20_000)
		phases[i] = workload.NewSkewed(dom, 10_000,
			[]workload.HotSpot{{Area: area, Weight: 1}}, int64(i+1))
	}
	gen := workload.NewChanging(30, phases...)

	fmt.Println("phase | query | rows | read KB | wrote KB | splits | segments")
	fmt.Println(strings.Repeat("-", 66))
	var phaseWrites int64
	for q := 0; q < 120; q++ {
		query := gen.Next()
		res, st := col.Select(query.Lo, query.Hi)
		phaseWrites += st.WriteBytes
		// Print the first few queries of each phase, where the shift hits.
		if q%30 < 3 {
			fmt.Printf("  %d   |  %3d  | %4d | %7d | %8d | %6d | %d\n",
				q/30+1, q+1, len(res), st.ReadBytes>>10, st.WriteBytes>>10,
				st.Splits, col.SegmentCount())
		}
		if q%30 == 29 {
			fmt.Printf("  %d   | phase total writes: %d KB\n", q/30+1, phaseWrites>>10)
			phaseWrites = 0
		}
	}

	fmt.Printf("\nfinal: %d segments, %d KB written in total over %d queries\n",
		col.SegmentCount(), col.Totals().WriteBytes>>10, col.Queries())
	fmt.Println("note the write bursts at each phase start — reorganization follows the workload.")
	// Output:
	// phase | query | rows | read KB | wrote KB | splits | segments
	// ------------------------------------------------------------------
	//   1   |    1  | 1011 |     390 |      390 |      1 | 3
	//   1   |    2  | 1014 |      45 |       41 |      1 | 4
	//   1   |    3  | 1022 |      24 |       20 |      1 | 5
	//   1   | phase total writes: 980 KB
	//   2   |   31  | 1017 |     167 |      167 |      1 | 10
	//   2   |   32  | 1055 |     111 |      107 |      1 | 11
	//   2   |   33  | 1024 |      58 |       54 |      1 | 12
	//   2   | phase total writes: 482 KB
	//   3   |   61  |  986 |     173 |      173 |      1 | 20
	//   3   |   62  |  972 |     110 |      106 |      1 | 21
	//   3   |   63  | 1053 |      66 |       62 |      1 | 22
	//   3   | phase total writes: 523 KB
	//   4   |   91  | 1009 |      53 |       53 |      1 | 31
	//   4   |   92  | 1013 |      19 |       15 |      1 | 32
	//   4   |   93  | 1016 |      11 |        0 |      0 | 32
	//   4   | phase total writes: 154 KB
	//
	// final: 36 segments, 2140 KB written in total over 120 queries
	// note the write bursts at each phase start — reorganization follows the workload.
}

// Example_concurrent shows the concurrency substrate: 8 client
// goroutines query one shared column while it self-organizes under
// them, once per strategy. Readers scan immutable snapshots, every query
// applies the reorganization it triggers behind the single-writer path,
// and every result is checked against a sorted reference copy of the
// data. How the layout converges depends on the schedule, so only the
// verdicts are printed.
func Example_concurrent() {
	const (
		numValues = 200_000
		domainHi  = 1_000_000 - 1
		clients   = 8
		perClient = 300
	)
	r := rand.New(rand.NewSource(1))
	values := make([]int64, numValues)
	for i := range values {
		values[i] = r.Int63n(domainHi + 1)
	}
	// The column never changes logically, so every concurrent query must
	// return exactly the matching count of the reference.
	sorted := append([]int64(nil), values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	expect := func(lo, hi int64) int {
		a := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= lo })
		b := sort.Search(len(sorted), func(i int) bool { return sorted[i] > hi })
		return b - a
	}

	for _, strat := range []selforg.Strategy{selforg.Segmentation, selforg.Replication} {
		col, err := selforg.New(selforg.Interval{Lo: 0, Hi: domainHi}, append([]int64(nil), values...), selforg.Options{
			Strategy:    strat,
			Model:       selforg.APM,
			Parallelism: 4, // each query may fan its scans over 4 workers
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %d clients × %d queries (~2%% each) over %d values, %d KB\n",
			strat, clients, perClient, numValues, col.StorageBytes()/1024)
		var verified, mismatches atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cr := rand.New(rand.NewSource(int64(100 + c)))
				for i := 0; i < perClient; i++ {
					lo := cr.Int63n(domainHi)
					hi := min(lo+domainHi/50, domainHi)
					if res, _ := col.Select(lo, hi); len(res) == expect(lo, hi) {
						verified.Add(1)
					} else {
						mismatches.Add(1)
					}
				}
			}(c)
		}
		wg.Wait()
		fmt.Printf("served %d queries: %d verified, %d mismatches\n",
			col.Queries(), verified.Load(), mismatches.Load())
		if err := col.Validate(); err != nil {
			panic(err)
		}
		fmt.Println("layout invariants hold after the storm")
	}
	// Output:
	// segmentation: 8 clients × 300 queries (~2% each) over 200000 values, 781 KB
	// served 2400 queries: 2400 verified, 0 mismatches
	// layout invariants hold after the storm
	// replication: 8 clients × 300 queries (~2% each) over 200000 values, 781 KB
	// served 2400 queries: 2400 verified, 0 mismatches
	// layout invariants hold after the storm
}
