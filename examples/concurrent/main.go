// Concurrent demonstrates the concurrency substrate: N client goroutines
// query one shared column while it self-organizes under them, once per
// strategy. Readers scan immutable snapshots, every query applies the
// reorganization it triggers behind the single-writer path, and every
// result is verified against a reference copy of the data — the column
// converges to the same kind of layout a serial run reaches, while
// serving all clients at once. Any wrong answer makes the program exit
// with status 1.
//
//	go run ./examples/concurrent
package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"selforg"
)

const (
	numValues = 200_000
	domainHi  = 1_000_000 - 1
	clients   = 8
	perClient = 300
)

func main() {
	r := rand.New(rand.NewSource(1))
	values := make([]int64, numValues)
	for i := range values {
		values[i] = r.Int63n(domainHi + 1)
	}
	// Reference copy for verification: the column never changes logically,
	// so every concurrent query must return exactly the matching count.
	sorted := append([]int64(nil), values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var mismatches int64
	for _, strat := range []selforg.Strategy{selforg.Segmentation, selforg.Replication} {
		mismatches += run(strat, append([]int64(nil), values...), sorted)
	}
	if mismatches > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d concurrent results differ from the reference\n", mismatches)
		os.Exit(1)
	}
}

// run storms one column of the given strategy with the clients and
// returns how many results differed from the reference.
func run(strat selforg.Strategy, values, sorted []int64) int64 {
	expect := func(lo, hi int64) int {
		a := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= lo })
		b := sort.Search(len(sorted), func(i int) bool { return sorted[i] > hi })
		return b - a
	}
	col, err := selforg.New(selforg.Interval{Lo: 0, Hi: domainHi}, values, selforg.Options{
		Strategy:    strat,
		Model:       selforg.APM,
		Parallelism: 4, // each query may fan its scans over 4 workers
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("== %s: %d values over [0, %d], 1 segment, %d KB\n",
		strat, numValues, domainHi, col.StorageBytes()/1024)
	fmt.Printf("launching %d clients × %d queries (selectivity ~2%%)...\n", clients, perClient)

	var verified, mismatches atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cr := rand.New(rand.NewSource(int64(100 + c)))
			for i := 0; i < perClient; i++ {
				lo := cr.Int63n(domainHi)
				hi := lo + domainHi/50
				if hi > domainHi {
					hi = domainHi
				}
				res, _ := col.Select(lo, hi)
				if len(res) == expect(lo, hi) {
					verified.Add(1)
				} else {
					mismatches.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	totals := col.Totals()
	fmt.Printf("served %d queries in %v (%.0f queries/sec aggregate)\n",
		col.Queries(), wall.Round(time.Millisecond),
		float64(col.Queries())/wall.Seconds())
	fmt.Printf("verified %d results against the reference, %d mismatches\n",
		verified.Load(), mismatches.Load())
	if err := col.Validate(); err != nil {
		panic(err)
	}
	fmt.Println("layout invariants hold after the storm")

	fmt.Printf("convergence: %d splits reorganized the column into %d segments\n",
		totals.Splits, col.SegmentCount())
	fmt.Printf("bytes read %d MB, bytes written (reorganization) %d KB\n",
		totals.ReadBytes>>20, totals.WriteBytes>>10)
	sizes := col.SegmentSizes()
	var min, max float64
	for i, s := range sizes {
		if i == 0 || s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	fmt.Printf("segment sizes now span %.0f–%.0f KB (APM bounds steer 3–12 KB at ElemSize 4)\n\n",
		min/1024, max/1024)
	return mismatches.Load()
}
