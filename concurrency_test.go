package selforg

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// These tests are the concurrency acceptance suite: snapshot readers must
// observe exact results while reorganization runs beside them, the
// parallel scan path must be byte-identical to the serial one, and the
// whole machinery must be clean under `go test -race`.

// concValues draws n values uniformly from [0, dom).
func concValues(n int, dom int64, seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = r.Int63n(dom)
	}
	return vals
}

// expectedCount answers `count(*) where v in [lo, hi]` on a sorted copy.
func expectedCount(sorted []int64, lo, hi int64) int {
	a := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= lo })
	b := sort.Search(len(sorted), func(i int) bool { return sorted[i] > hi })
	return b - a
}

// countingTracer sums Materialize bytes; safe for concurrent use.
type countingTracer struct{ materialized atomic.Int64 }

func (c *countingTracer) Scan(int64, int64)          {}
func (c *countingTracer) Materialize(_, bytes int64) { c.materialized.Add(bytes) }
func (c *countingTracer) Drop(int64, int64)          {}

// TestConcurrentScannersDriveReorganization is the stress acceptance
// test: 8 concurrent scanners hammer one column on every strategy/model/
// compression combination while it self-organizes. The data never
// changes, so every query — no matter which snapshot it scans or which
// splits it races — must return exactly the matching multiset;
// afterwards the layout invariants must hold and a full-extent count
// must see every value. Accounting must be conserved: every query
// counts its own reorganization, so the queries' summed Stats equal
// Totals(), their splits, drops and recodes equal the event counters,
// and their written bytes equal the Tracer's Materialize bytes.
func TestConcurrentScannersDriveReorganization(t *testing.T) {
	const (
		nVals    = 30_000
		dom      = 1_000_000
		scanners = 8
		queries  = 60
	)
	vals := concValues(nVals, dom, 42)
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	for _, strat := range []Strategy{Segmentation, Replication} {
		for _, mod := range []Model{APM, GD} {
			for _, comp := range []Compression{CompressionOff, CompressionAuto} {
				for _, par := range []int{1, 4} {
					name := fmt.Sprintf("%s/%s/%s par=%d", strat, mod, comp, par)
					ob := NewObserver()
					tr := &countingTracer{}
					col, err := New(Interval{0, dom - 1}, append([]int64(nil), vals...), Options{
						Strategy:      strat,
						Model:         mod,
						Compression:   comp,
						Parallelism:   par,
						Tracer:        tr,
						Observability: Observability{Observer: ob},
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					built := tr.materialized.Load()
					var wg sync.WaitGroup
					errs := make(chan string, scanners)
					sums := make([]Stats, scanners)
					for g := 0; g < scanners; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							r := rand.New(rand.NewSource(int64(1000 + g)))
							for i := 0; i < queries; i++ {
								lo := r.Int63n(dom)
								hi := lo + r.Int63n(dom/10)
								if hi >= dom {
									hi = dom - 1
								}
								want := expectedCount(sorted, lo, hi)
								if i%3 == 0 {
									n, st := col.Count(lo, hi)
									sums[g].Add(st)
									if int(n) != want {
										errs <- name + ": count mismatch"
										return
									}
									continue
								}
								res, st := col.Select(lo, hi)
								sums[g].Add(st)
								if len(res) != want {
									errs <- name + ": result size mismatch"
									return
								}
								for _, v := range res {
									if v < lo || v > hi {
										errs <- name + ": result value outside query range"
										return
									}
								}
							}
						}(g)
					}
					wg.Wait()
					close(errs)
					for e := range errs {
						t.Fatal(e)
					}
					if err := col.Validate(); err != nil {
						t.Fatalf("%s: invalid layout after stress: %v", name, err)
					}
					n, st := col.Count(0, dom-1)
					if int(n) != nVals {
						t.Fatalf("%s: full count = %d, want %d", name, n, nVals)
					}
					if col.SegmentCount() < 2 {
						t.Fatalf("%s: column never reorganized", name)
					}

					var sum Stats
					for _, s := range sums {
						sum.Add(s)
					}
					sum.Add(st)
					totals := col.Totals()
					// The storage snapshot is carry-last, not additive: under
					// concurrency "last" is whichever query finished last.
					sum.StorageBytes, sum.CompressedBytes = totals.StorageBytes, totals.CompressedBytes
					if sum != totals {
						t.Errorf("%s: summed query Stats %+v, Totals %+v", name, sum, totals)
					}
					ev := eventCounts(t, ob)
					if int64(sum.Splits) != ev["split"] || int64(sum.Drops) != ev["drop"] || int64(sum.Recodes) != ev["recode"] {
						t.Errorf("%s: queries counted %d splits, %d drops, %d recodes; events %d, %d, %d",
							name, sum.Splits, sum.Drops, sum.Recodes, ev["split"], ev["drop"], ev["recode"])
					}
					if w := tr.materialized.Load() - built; sum.WriteBytes != w {
						t.Errorf("%s: queries wrote %d bytes, the Tracer saw %d materialized", name, sum.WriteBytes, w)
					}
				}
			}
		}
	}
}

// TestParallelMatchesSerialExactly replays one deterministic query stream
// against a serial column and a Parallelism=8 twin, for every strategy,
// model and compression setting: results, per-query stats, layout
// evolution and final storage must be byte-identical — fan-out may only
// change wall-clock, never observable behaviour.
func TestParallelMatchesSerialExactly(t *testing.T) {
	const (
		nVals   = 20_000
		dom     = 500_000
		queries = 150
	)
	vals := concValues(nVals, dom, 7)
	for _, strat := range []Strategy{Segmentation, Replication} {
		for _, mod := range []Model{APM, GD} {
			for _, comp := range []Compression{CompressionOff, CompressionAuto} {
				name := strat.String() + "/" + mod.String() + "/" + comp.String()
				mk := func(par int) *Column {
					col, err := New(Interval{0, dom - 1}, append([]int64(nil), vals...), Options{
						Strategy:    strat,
						Model:       mod,
						Compression: comp,
						Parallelism: par,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return col
				}
				serial, parallel := mk(1), mk(8)
				r := rand.New(rand.NewSource(99))
				for i := 0; i < queries; i++ {
					lo := r.Int63n(dom)
					hi := lo + r.Int63n(dom/8)
					if hi >= dom {
						hi = dom - 1
					}
					if i%5 == 4 {
						ns, sts := serial.Count(lo, hi)
						np, stp := parallel.Count(lo, hi)
						if ns != np {
							t.Fatalf("%s q%d: count %d != %d", name, i, np, ns)
						}
						if sts != stp {
							t.Fatalf("%s q%d: count stats differ:\nserial   %+v\nparallel %+v", name, i, sts, stp)
						}
						continue
					}
					rs, sts := serial.Select(lo, hi)
					rp, stp := parallel.Select(lo, hi)
					if len(rs) != len(rp) {
						t.Fatalf("%s q%d: result length %d != %d", name, i, len(rp), len(rs))
					}
					for j := range rs {
						if rs[j] != rp[j] {
							t.Fatalf("%s q%d: result[%d] = %d != %d", name, i, j, rp[j], rs[j])
						}
					}
					if sts != stp {
						t.Fatalf("%s q%d: stats differ:\nserial   %+v\nparallel %+v", name, i, sts, stp)
					}
				}
				if serial.Layout() != parallel.Layout() {
					t.Fatalf("%s: layouts diverged:\nserial:\n%s\nparallel:\n%s",
						name, serial.Layout(), parallel.Layout())
				}
				if serial.StorageBytes() != parallel.StorageBytes() ||
					serial.SegmentCount() != parallel.SegmentCount() ||
					serial.Totals() != parallel.Totals() {
					t.Fatalf("%s: final state diverged", name)
				}
			}
		}
	}
}

// TestReplicationScannersWithWritersStress is the PR-5 acceptance
// stress: 8 concurrent scanners on one replication column while 2
// writers push point writes, bulk loads and merge-backs through it.
// Before the persistent replica tree every one of these scans serialized
// behind the writer mutex (and merge churn would have demoted pinned
// views to read-committed); now the scans are lock-free and a view
// pinned before the churn must stay byte-stable through all of it.
func TestReplicationScannersWithWritersStress(t *testing.T) {
	const (
		nVals    = 20_000
		dom      = 200_000
		scanners = 8
		writers  = 2
	)
	vals := concValues(nVals, dom, 17)
	col, err := New(Interval{0, dom - 1}, append([]int64(nil), vals...), Options{
		Strategy:      Replication,
		Model:         APM,
		DeltaMaxBytes: 512, // merge-back churn: drain every 128 entries
	})
	if err != nil {
		t.Fatal(err)
	}
	pinned := col.View()
	pinnedWant := pinned.Count(0, dom-1)

	var inserted, deleted, loaded int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(500 + w)))
			var ins, del, load int64
			for i := 0; i < 200; i++ {
				switch r.Intn(5) {
				case 0:
					batch := make([]int64, 25)
					for j := range batch {
						batch[j] = r.Int63n(dom)
					}
					if _, err := col.BulkLoad(batch); err != nil {
						t.Errorf("bulk load: %v", err)
						return
					}
					load += int64(len(batch))
				case 1:
					if ok, _, _ := col.Delete(vals[r.Intn(len(vals))]); ok {
						del++
					}
				default:
					if _, err := col.Insert(r.Int63n(dom)); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
					ins++
				}
			}
			mu.Lock()
			inserted += ins
			deleted += del
			loaded += load
			mu.Unlock()
		}(w)
	}
	for g := 0; g < scanners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(900 + g)))
			for i := 0; i < 120; i++ {
				lo := r.Int63n(dom)
				hi := lo + r.Int63n(dom/10)
				if hi >= dom {
					hi = dom - 1
				}
				res, _ := col.Select(lo, hi)
				for _, v := range res {
					if v < lo || v > hi {
						t.Errorf("value %d outside [%d, %d]", v, lo, hi)
						return
					}
				}
				// The pre-churn view must stay exact mid-flight.
				if i%20 == 10 {
					if n := pinned.Count(0, dom-1); n != pinnedWant {
						t.Errorf("pinned view drifted mid-churn: %d != %d", n, pinnedWant)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := col.Validate(); err != nil {
		t.Fatalf("invalid layout after stress: %v", err)
	}
	if n := pinned.Count(0, dom-1); n != pinnedWant {
		t.Fatalf("pinned view drifted: %d != %d", n, pinnedWant)
	}
	if _, err := col.MergeDeltas(); err != nil {
		t.Fatal(err)
	}
	want := int64(nVals) + inserted + loaded - deleted
	if n, _ := col.Count(0, dom-1); n != want {
		t.Fatalf("full count = %d, want %d", n, want)
	}
}

// TestSegmentationScannersWithWritersStress is the Segmentation side of
// the same acceptance: 4 readers of wide and narrow Count / SelectRows
// beside one writer pushing inserts and deletes through merge-backs, a
// BulkLoad and GlueSmall. Split-free reads scan the pinned snapshot
// outside the writer lock, so every result must still be a consistent
// (base, delta) state: ranges disjoint from the written keys equal the
// sorted oracle exactly, ranges overlapping them lie between the base
// count and base plus the inserts begun so far (the writer deletes only
// what it inserted), and on one pinned view SelectRows and Count agree.
func TestSegmentationScannersWithWritersStress(t *testing.T) {
	const (
		nVals   = 20_000
		dom     = 200_000
		wLo     = dom / 2 // the writer's key range is [wLo, wHi)
		wHi     = dom * 3 / 4
		readers = 4
	)
	vals := concValues(nVals, dom, 29)
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	run := func(t *testing.T, opts Options) {
		opts.Strategy = Segmentation
		opts.DeltaMaxBytes = 512 // merge-back churn: drain every 128 entries
		col, err := New(Interval{0, dom - 1}, append([]int64(nil), vals...), opts)
		if err != nil {
			t.Fatal(err)
		}
		// begun counts inserts handed to the column, bumped before the
		// call: a reader that loads it after its query has an upper bound
		// on the inserts that query can have seen.
		var begun atomic.Int64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(700))
			var live []int64
			for i := 0; i < 400; i++ {
				switch {
				case i == 150:
					batch := make([]int64, 40)
					for j := range batch {
						batch[j] = wLo + r.Int63n(wHi-wLo)
					}
					begun.Add(int64(len(batch)))
					if _, err := col.BulkLoad(batch); err != nil {
						t.Errorf("bulk load: %v", err)
						return
					}
				case i%100 == 99:
					col.GlueSmall(1 << 10)
				case len(live) > 0 && r.Intn(3) == 0:
					j := r.Intn(len(live))
					ok, _, err := col.Delete(live[j])
					if err != nil || !ok {
						t.Errorf("delete of inserted %d: ok=%v err=%v", live[j], ok, err)
						return
					}
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				default:
					v := wLo + r.Int63n(wHi-wLo)
					begun.Add(1)
					if _, err := col.Insert(v); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
					live = append(live, v)
				}
			}
		}()
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(800 + g)))
				for i := 0; i < 100; i++ {
					width := int64(dom / 200) // narrow
					if i%2 == 0 {
						width = dom / 5 // wide
					}
					lo := r.Int63n(dom - width)
					hi := lo + width - 1
					base := int64(expectedCount(sorted, lo, hi))
					disjoint := hi < wLo || lo >= wHi

					var n int64
					var rows *Rows
					if i%4 < 2 {
						n, _ = col.Count(lo, hi)
					} else {
						rows, _ = col.SelectRows(lo, hi)
						n = int64(rows.Len())
					}
					if max := base + begun.Load(); n < base || n > max || (disjoint && n != base) {
						t.Errorf("[%d, %d] disjoint=%v: got %d rows, base %d, at most %d", lo, hi, disjoint, n, base, max)
						return
					}
					if disjoint && rows != nil {
						got := rows.Flatten()
						sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
						a := sort.Search(len(sorted), func(k int) bool { return sorted[k] >= lo })
						for k, v := range got {
							if v != sorted[a+k] {
								t.Errorf("[%d, %d]: row %d is %d, oracle %d", lo, hi, k, v, sorted[a+k])
								return
							}
						}
					}
					if i%10 == 5 {
						v := col.View()
						if got, want := int64(v.SelectRows(lo, hi).Len()), v.Count(lo, hi); got != want {
							t.Errorf("pinned view [%d, %d]: SelectRows %d rows, Count %d", lo, hi, got, want)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		if err := col.Validate(); err != nil {
			t.Fatalf("invalid layout after stress: %v", err)
		}
	}
	for _, m := range []Model{APM, GD} {
		for _, comp := range []Compression{CompressionOff, CompressionAuto} {
			for _, shards := range []int{1, 4} {
				name := fmt.Sprintf("model=%v/comp=%v/shards=%d", m, comp, shards)
				t.Run(name, func(t *testing.T) {
					run(t, Options{Model: m, Compression: comp, Shards: shards})
				})
			}
		}
	}
}

// TestConcurrentBulkLoadAndScan mixes writers (BulkLoad) with scanners:
// every scanned value must lie in the query range and the final count
// must equal the initial plus loaded values.
func TestConcurrentBulkLoadAndScan(t *testing.T) {
	const (
		nVals   = 10_000
		dom     = 100_000
		loaders = 2
		readers = 6
		batches = 20
	)
	for _, strat := range []Strategy{Segmentation, Replication} {
		col, err := New(Interval{0, dom - 1}, concValues(nVals, dom, 3), Options{
			Strategy:    strat,
			Model:       APM,
			Parallelism: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for l := 0; l < loaders; l++ {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(l)))
				for i := 0; i < batches; i++ {
					batch := make([]int64, 50)
					for j := range batch {
						batch[j] = r.Int63n(dom)
					}
					if _, err := col.BulkLoad(batch); err != nil {
						t.Errorf("bulk load: %v", err)
						return
					}
				}
			}(l)
		}
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(100 + g)))
				for i := 0; i < 40; i++ {
					lo := r.Int63n(dom)
					hi := lo + r.Int63n(dom/10)
					if hi >= dom {
						hi = dom - 1
					}
					res, _ := col.Select(lo, hi)
					for _, v := range res {
						if v < lo || v > hi {
							t.Errorf("value %d outside [%d, %d]", v, lo, hi)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		if err := col.Validate(); err != nil {
			t.Fatalf("%v: invalid layout: %v", strat, err)
		}
		want := int64(nVals + loaders*batches*50)
		if strat == Replication {
			// Replicated columns hold copies; count the logical column via
			// the full extent (served from the covering segments).
			n, _ := col.Count(0, dom-1)
			if n != want {
				t.Fatalf("replication: full count = %d, want %d", n, want)
			}
		} else {
			n, _ := col.Count(0, dom-1)
			if n != want {
				t.Fatalf("segmentation: full count = %d, want %d", n, want)
			}
		}
	}
}
