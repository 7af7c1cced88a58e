package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"selforg/internal/domain"
	"selforg/internal/model"
)

// TestPinConservesTotalsUnderMerge: while a writer inserts and merges
// back, readers pin in a tight loop, and every pinned view's count and
// sum of base ⊕ delta equal the committed totals at its watermark. A pin
// that paired a base and a delta snapshot from opposite sides of a merge
// would double-count or lose the merged entries. Checkpoint capture
// reads through these pins.
func TestPinConservesTotalsUnderMerge(t *testing.T) {
	extent := domain.Range{Lo: 0, Hi: 1 << 20}
	for _, tc := range []struct {
		name  string
		build func(vals []domain.Value) DeltaStrategy
	}{
		{"segmentation", func(v []domain.Value) DeltaStrategy {
			return NewSegmenter(extent, v, 4, model.NewAPM(256, 1024), nil)
		}},
		{"replication", func(v []domain.Value) DeltaStrategy {
			return NewReplicator(extent, v, 4, model.NewAPM(256, 1024), nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(3))
			vals := make([]domain.Value, 1000)
			var want total
			for i := range vals {
				vals[i] = rnd.Int63n(extent.Hi + 1)
				want.add(total{1, vals[i]})
			}
			s := tc.build(vals)
			s.SetDeltaPolicy(0, 0) // merges come only from MergeDeltas
			pin := s.(interface{ Pin() *View }).Pin
			for i := 0; i < 20; i++ { // a layout to merge into
				a := rnd.Int63n(extent.Hi)
				s.Count(domain.Range{Lo: a, Hi: a + extent.Hi/16})
			}

			var mu sync.Mutex
			committed := map[int64]total{pin().Watermark(): want}
			type seen struct {
				w int64
				t total
			}
			var pending []seen // pinned before the writer recorded its watermark
			var stop atomic.Bool
			var pins atomic.Int64
			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						v := pin()
						_, got := v.read(extent, sinkSum)
						pins.Add(1)
						mu.Lock()
						if exp, ok := committed[v.Watermark()]; !ok {
							pending = append(pending, seen{v.Watermark(), got})
						} else if got != exp {
							mu.Unlock()
							t.Errorf("pin at watermark %d reads count %d sum %d, committed %d / %d",
								v.Watermark(), got.n, got.sum, exp.n, exp.sum)
							return
						}
						mu.Unlock()
					}
				}()
			}
			for i := 0; i < 3000 && !t.Failed(); i++ {
				v := rnd.Int63n(extent.Hi + 1)
				if _, err := s.Insert(v); err != nil {
					t.Fatal(err)
				}
				want.add(total{1, v})
				mu.Lock()
				committed[pin().Watermark()] = want
				mu.Unlock()
				if i%2 == 1 {
					if _, err := s.MergeDeltas(); err != nil {
						t.Fatal(err)
					}
				}
			}
			stop.Store(true)
			wg.Wait()
			for _, p := range pending {
				if exp := committed[p.w]; p.t != exp {
					t.Errorf("pin at watermark %d reads count %d sum %d, committed %d / %d", p.w, p.t.n, p.t.sum, exp.n, exp.sum)
				}
			}
			if s.DeltaStats().Merges == 0 || pins.Load() < 1000 {
				t.Fatalf("%d merges, %d pins: the race was not run", s.DeltaStats().Merges, pins.Load())
			}
		})
	}
}
