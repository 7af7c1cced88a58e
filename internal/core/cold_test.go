package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"selforg/internal/compress"
	"selforg/internal/core"
	"selforg/internal/domain"
	"selforg/internal/model"
	"selforg/internal/shard"
	"selforg/internal/workload"
)

// uniformValues draws n values uniformly from dom.
func uniformValues(n int, dom domain.Range, seed int64) []domain.Value {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]domain.Value, n)
	for i := range vals {
		vals[i] = dom.Lo + rng.Int63n(dom.Width())
	}
	return vals
}

// coldRound is one round of the benchmark's adapt_cold workload: four
// phases, each confined to two hot areas 2% of the domain wide, every
// area in an eighth of the domain of its own, with 1% ranges.
func coldRound(dom domain.Range, perPhase int, seed int64) []domain.Range {
	place := rand.New(rand.NewSource(seed))
	slots := place.Perm(8)
	slot, area := dom.Width()/8, dom.Width()/50
	width := workload.WidthForSelectivity(dom, 0.01)
	var qs []domain.Range
	for p := 0; p < 4; p++ {
		spots := make([]workload.HotSpot, 2)
		for i := range spots {
			lo := dom.Lo + int64(slots[2*p+i])*slot + place.Int63n(slot-area)
			spots[i] = workload.HotSpot{Area: domain.NewRange(lo, lo+area-1), Weight: 1}
		}
		gen := workload.NewSkewed(dom, width, spots, seed+int64(p))
		for i := 0; i < perPhase; i++ {
			qs = append(qs, gen.Next().Range())
		}
	}
	return qs
}

// TestPayloadCapacityIsExact holds every raw or Plain payload a column
// keeps to its exact size after a run of reorganizing queries: split
// pieces, replicas and shard slices must not pin a backing array sized
// for the segment they were cut from.
func TestPayloadCapacityIsExact(t *testing.T) {
	dom := domain.NewRange(0, 999_999)
	qs := coldRound(dom, 75, 7)
	for _, repl := range []bool{false, true} {
		for _, mode := range []compress.Mode{compress.Off, compress.ForcePlain} {
			for _, shards := range []int{1, 4} {
				name := fmt.Sprintf("repl=%v/%v/shards=%d", repl, mode, shards)
				build := func(_ int, rng domain.Range, vals []domain.Value) core.DeltaStrategy {
					apm := model.NewAPM(3<<10, 12<<10)
					if repl {
						r := core.NewReplicator(rng, vals, 4, apm, nil)
						r.SetCompression(mode)
						return r
					}
					s := core.NewSegmenter(rng, vals, 4, apm, nil)
					s.SetCompression(mode)
					return s
				}
				vals := uniformValues(100_000, dom, 1)
				var col core.Strategy
				strats := []core.Strategy{}
				if shards == 1 {
					col = build(0, dom, vals)
					strats = append(strats, col)
				} else {
					sc, err := shard.New(dom, vals, shards, build)
					if err != nil {
						t.Fatal(err)
					}
					col = sc
					for i := 0; i < sc.Shards(); i++ {
						strats = append(strats, sc.Shard(i))
					}
				}
				splits := 0
				for _, q := range qs {
					_, st := col.Select(q)
					splits += st.Splits
				}
				if splits == 0 {
					t.Fatalf("%s: no query reorganized the column", name)
				}
				var sumCap, sumLen int
				for _, s := range strats {
					core.Payloads(s, func(vals []domain.Value) {
						sumCap += cap(vals)
						sumLen += len(vals)
					})
				}
				if sumCap != sumLen {
					t.Errorf("%s: payloads hold Σcap %d for Σlen %d (%.2f×)", name, sumCap, sumLen, float64(sumCap)/float64(sumLen))
				}
			}
		}
	}
}

// BenchmarkColdRound replays one round of the benchmark's adapt_cold
// workload on a single client: a fresh 1M-value column compressed under
// Auto, APM with 3 KB–12 KB bounds, and 1 000 queries — four phases of
// two 2% hot areas each, 1% ranges, 80% SelectRope and 20% Count. Column
// construction is outside the timer; the round's splits, recodes and
// allocations are reported per round.
func BenchmarkColdRound(b *testing.B) {
	dom := domain.NewRange(0, 1<<30-1)
	vals := uniformValues(1_000_000, dom, 1)
	qs := coldRound(dom, 250, 2)
	mix := rand.New(rand.NewSource(3))
	count := make([]bool, len(qs))
	for i := range count {
		count[i] = mix.Intn(5) == 0
	}
	b.ReportAllocs()
	var splits, recodes int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := core.NewSegmenter(dom, append([]domain.Value(nil), vals...), 4, model.NewAPM(3<<10, 12<<10), nil)
		s.SetCompression(compress.Auto)
		b.StartTimer()
		for j, q := range qs {
			var st core.QueryStats
			if count[j] {
				_, st = s.Count(q)
			} else {
				_, st = s.SelectRope(q)
			}
			splits += st.Splits
			recodes += st.Recodes
		}
	}
	b.ReportMetric(float64(splits)/float64(b.N), "splits/round")
	b.ReportMetric(float64(recodes)/float64(b.N), "recodes/round")
}
