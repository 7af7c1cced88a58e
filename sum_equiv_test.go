package selforg

// SUM pushdown equivalence: Column.Sum answers from the encoding and the
// per-segment (count, sum) summaries, never from materialized rows. It
// must equal the count and the sum of SelectRows on the same range, and
// — since it is Count's pass with a summing sink — cost exactly what a
// Count costs: same Stats, same layout evolution. Checked across
// strategy × model × compression × shards, with inserts, deletes and
// merge-backs interleaved, and across a durable close + reopen.

import (
	"fmt"
	"math"
	"testing"

	"selforg/internal/domain"
	"selforg/internal/workload"
)

// sumTwins are three columns built alike and fed one script: one answers
// every read with Sum, one with Count, one with SelectRows.
type sumTwins struct{ sum, cnt, sel *Column }

func newSumTwins(t *testing.T, extent Interval, vals []int64, opts Options) sumTwins {
	t.Helper()
	var cols [3]*Column
	for i := range cols {
		c, err := New(extent, append([]int64(nil), vals...), opts)
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = c
	}
	return sumTwins{cols[0], cols[1], cols[2]}
}

func (tw sumTwins) each(f func(c *Column) error) error {
	for _, c := range []*Column{tw.sum, tw.cnt, tw.sel} {
		if err := f(c); err != nil {
			return err
		}
	}
	return nil
}

// check runs one read on all three twins and compares the answers.
func (tw sumTwins) check(t *testing.T, step string, lo, hi int64) {
	t.Helper()
	n, sum, sst := tw.sum.Sum(lo, hi)
	cn, cst := tw.cnt.Count(lo, hi)
	rows, _ := tw.sel.SelectRows(lo, hi)
	var want int64
	rows.Chunks(func(vals []int64) bool {
		for _, v := range vals {
			want += v
		}
		return true
	})
	if n != int64(rows.Len()) || sum != want {
		t.Fatalf("%s [%d,%d]: Sum = (%d, %d), SelectRows has %d rows summing to %d", step, lo, hi, n, sum, rows.Len(), want)
	}
	if n != cn || sst != cst {
		t.Fatalf("%s [%d,%d]: Sum and Count differ:\n  sum   n=%d %+v\n  count n=%d %+v", step, lo, hi, n, sst, cn, cst)
	}
}

func TestSumMatchesSelectAndCount(t *testing.T) {
	domains := map[string]domain.Range{
		"low": domain.NewRange(0, 99_999),
		// Sums wrap here: every path must wrap alike.
		"top": domain.NewRange(math.MaxInt64-99_999, math.MaxInt64),
	}
	for dname, dom := range domains {
		extent := Interval{dom.Lo, dom.Hi}
		vals := equivColumn(6000, dom, 3)
		for _, strat := range []Strategy{Segmentation, Replication} {
			for _, mod := range []Model{APM, GD} {
				for _, comp := range []Compression{CompressionOff, CompressionAuto, CompressionRLE, CompressionDict, CompressionFOR} {
					for _, shards := range []int{1, 4} {
						name := fmt.Sprintf("%s/%v/%v/%v/shards=%d", dname, strat, mod, comp, shards)
						t.Run(name, func(t *testing.T) {
							tw := newSumTwins(t, extent, vals, Options{
								Strategy: strat, Model: mod,
								APMMin: 256, APMMax: 2048,
								Compression: comp, Shards: shards,
								DeltaMaxBytes: 512, // merge-backs mid-stream
							})
							gen := workload.NewUniform(dom, dom.Width()/20, 7)
							for i := 0; i < 60; i++ {
								if i%4 == 1 {
									w := dom.Lo + int64(i)*1_663%dom.Width()
									if err := tw.each(func(c *Column) error { _, err := c.Insert(w); return err }); err != nil {
										t.Fatal(err)
									}
								}
								if i%8 == 5 {
									w := vals[(i*97)%len(vals)]
									if err := tw.each(func(c *Column) error { _, _, err := c.Delete(w); return err }); err != nil {
										t.Fatal(err)
									}
								}
								q := gen.Next()
								tw.check(t, fmt.Sprintf("q%d", i), q.Lo, q.Hi)
							}
							tw.check(t, "full", dom.Lo, dom.Hi)
							tw.check(t, "outside", dom.Lo-1, dom.Lo-1)
							if n, sum, st := tw.sum.Sum(dom.Hi, dom.Lo); n != 0 || sum != 0 || st != (Stats{}) {
								t.Fatalf("inverted range: Sum = (%d, %d, %+v)", n, sum, st)
							}
							if sl, cl, rl := tw.sum.Layout(), tw.cnt.Layout(), tw.sel.Layout(); sl != cl || cl != rl {
								t.Fatalf("layouts diverged:\n  sum    %s\n  count  %s\n  select %s", sl, cl, rl)
							}
						})
					}
				}
			}
		}
	}
}

// TestSumAfterReopen: a durable column's Sum, after close and recovery
// from its logs and checkpoints, still equals Σ SelectRows and costs
// what Count costs.
func TestSumAfterReopen(t *testing.T) {
	dom := domain.NewRange(0, 99_999)
	extent := Interval{dom.Lo, dom.Hi}
	vals := equivColumn(4000, dom, 11)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := Options{
				Model: APM, APMMin: 256, APMMax: 2048,
				Compression: CompressionAuto, Shards: shards, DeltaMaxBytes: 512,
			}
			dirs := [3]string{t.TempDir(), t.TempDir(), t.TempDir()}
			open := func() sumTwins {
				var cols [3]*Column
				for i := range cols {
					o := opts
					o.Durability = Durability{Dir: dirs[i]}
					c, err := New(extent, append([]int64(nil), vals...), o)
					if err != nil {
						t.Fatal(err)
					}
					cols[i] = c
				}
				return sumTwins{cols[0], cols[1], cols[2]}
			}
			tw := open()
			gen := workload.NewUniform(dom, dom.Width()/10, 5)
			for i := 0; i < 40; i++ {
				w := dom.Lo + int64(i)*7_919%dom.Width()
				if err := tw.each(func(c *Column) error { _, err := c.Insert(w); return err }); err != nil {
					t.Fatal(err)
				}
				if i%3 == 0 {
					d := vals[i*31%len(vals)]
					if err := tw.each(func(c *Column) error { _, _, err := c.Delete(d); return err }); err != nil {
						t.Fatal(err)
					}
				}
				q := gen.Next()
				tw.check(t, fmt.Sprintf("before q%d", i), q.Lo, q.Hi)
			}
			tw.each(func(c *Column) error { c.Close(); return nil })

			tw = open()
			defer tw.each(func(c *Column) error { c.Close(); return nil })
			tw.check(t, "reopened full", dom.Lo, dom.Hi)
			for i := 0; i < 20; i++ {
				q := gen.Next()
				tw.check(t, fmt.Sprintf("after q%d", i), q.Lo, q.Hi)
			}
		})
	}
}
