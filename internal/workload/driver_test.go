package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"selforg/internal/core"
	"selforg/internal/domain"
	"selforg/internal/model"
)

// pureTarget answers every operation from its arguments alone, so what a
// set of clients tallies against it does not depend on how their
// operations interleave.
type pureTarget struct{}

func (pureTarget) Select(q domain.Range) ([]domain.Value, core.QueryStats) {
	return nil, core.QueryStats{ReadBytes: q.Lo, ResultCount: q.Width(), Splits: 1}
}
func (pureTarget) Insert(v domain.Value) (core.QueryStats, error) {
	return core.QueryStats{WriteBytes: v}, nil
}
func (pureTarget) Update(old, new domain.Value) (bool, core.QueryStats, error) {
	return old%2 == 0, core.QueryStats{WriteBytes: new, DeltaReadBytes: old}, nil
}
func (pureTarget) Delete(v domain.Value) (bool, core.QueryStats, error) {
	return v%3 == 0, core.QueryStats{Merged: 1}, nil
}

// replay is the reference the driver is held to: the same clients, one
// after another on the calling goroutine, every tally kept in one place.
func replay(t Target, clients []Client, mix Mix) Tally {
	var total Tally
	for _, c := range clients {
		rnd := rand.New(rand.NewSource(c.Seed))
		for i := 0; i < c.Ops; i++ {
			if rnd.Float64() >= mix.WriteRatio {
				_, st := t.Select(c.Query(i).Range())
				total.Stats.Add(st)
				total.Queries++
				continue
			}
			total.Writes++
			hit, st := true, core.QueryStats{}
			switch rnd.Intn(4) {
			case 0, 1:
				st, _ = t.Insert(mix.Dom.Lo + rnd.Int63n(mix.Dom.Width()))
			case 2:
				old := mix.Victims[rnd.Intn(len(mix.Victims))]
				hit, st, _ = t.Update(old, mix.Dom.Lo+rnd.Int63n(mix.Dom.Width()))
			default:
				hit, st, _ = t.Delete(mix.Victims[rnd.Intn(len(mix.Victims))])
			}
			total.Stats.Add(st)
			if !hit {
				total.Misses++
			}
		}
	}
	return total
}

// TestDriveMatchesSerialReplay holds the driver to a single-goroutine
// replay of the same streams, for both stream shapes the harnesses use
// (sim's per-client generators, sky's round-robin deal). Against the
// pure target, and with one client against a real strategy, every tally
// must match; several clients reorganizing one real column interleave,
// so there the order-independent tallies must match: the operation
// counts, and for read-only streams the result volume.
func TestDriveMatchesSerialReplay(t *testing.T) {
	dom := domain.NewRange(0, 99_999)
	column := func() []domain.Value {
		rnd := rand.New(rand.NewSource(1))
		vals := make([]domain.Value, 20_000)
		for i := range vals {
			vals[i] = dom.Lo + rnd.Int63n(dom.Width())
		}
		return vals
	}
	targets := map[string]func() Target{
		"pure": func() Target { return pureTarget{} },
		"segm": func() Target {
			s := core.NewSegmenter(dom, column(), 4, model.NewAPM(2<<10, 8<<10), nil)
			s.SetDeltaPolicy(256, 0)
			return s
		},
		"repl": func() Target {
			r := core.NewReplicator(dom, column(), 4, model.NewAPM(2<<10, 8<<10), nil)
			r.SetDeltaPolicy(256, 0)
			return r
		},
	}
	const ops = 240
	dealt := Take(NewUniform(dom, 5_000, 7), ops)
	streams := map[string]func(n int) []Client{
		"generators": func(n int) []Client {
			cs := make([]Client, n)
			for cl := range cs {
				gen := NewUniform(dom, 5_000, int64(cl))
				cs[cl] = Client{Ops: ops / n, Query: func(int) Query { return gen.Next() }, Seed: int64(cl + 1)}
			}
			return cs
		},
		"dealt": func(n int) []Client {
			cs := make([]Client, n)
			for cl := range cs {
				cl := cl
				cs[cl] = Client{Ops: ops / n, Query: func(i int) Query { return dealt[cl+i*n] }, Seed: int64(cl + 1)}
			}
			return cs
		},
	}
	for tname, newTarget := range targets {
		for sname, newClients := range streams {
			for _, n := range []int{1, 4} {
				for _, ratio := range []float64{0, 0.5} {
					t.Run(fmt.Sprintf("%s/%s/clients=%d/writes=%v", tname, sname, n, ratio), func(t *testing.T) {
						mix := Mix{WriteRatio: ratio, Dom: dom, Victims: column()}
						want := replay(newTarget(), newClients(n), mix)
						got, err := Drive(newTarget(), newClients(n), mix)
						if err != nil {
							t.Fatal(err)
						}
						if got.Wall <= 0 {
							t.Error("no wall time measured")
						}
						got.Wall = 0
						if n > 1 && tname != "pure" {
							got.Misses, want.Misses = 0, 0
							keep := func(st core.QueryStats) core.QueryStats {
								if ratio > 0 {
									return core.QueryStats{}
								}
								return core.QueryStats{ResultCount: st.ResultCount}
							}
							got.Stats, want.Stats = keep(got.Stats), keep(want.Stats)
						}
						if got != want {
							t.Errorf("driver tallied %+v, serial replay %+v", got, want)
						}
						if got.Queries+got.Writes != ops || (got.Writes > 0) != (ratio > 0) {
							t.Errorf("%d queries + %d writes, want %d operations", got.Queries, got.Writes, ops)
						}
					})
				}
			}
		}
	}
}

// failingTarget refuses its first write.
type failingTarget struct{ pureTarget }

func (failingTarget) Insert(domain.Value) (core.QueryStats, error) {
	return core.QueryStats{}, fmt.Errorf("merge-back failed")
}
func (failingTarget) Update(_, _ domain.Value) (bool, core.QueryStats, error) {
	return false, core.QueryStats{}, fmt.Errorf("merge-back failed")
}
func (failingTarget) Delete(domain.Value) (bool, core.QueryStats, error) {
	return false, core.QueryStats{}, fmt.Errorf("merge-back failed")
}

func TestDriveReportsWriteError(t *testing.T) {
	dom := domain.NewRange(0, 999)
	c := Client{Ops: 50, Query: func(int) Query { return Query{Lo: 0, Hi: 9} }, Seed: 1}
	tally, err := Drive(failingTarget{}, []Client{c, c}, Mix{WriteRatio: 0.5, Dom: dom, Victims: []domain.Value{1}})
	if err == nil {
		t.Fatal("write error not reported")
	}
	if tally.Writes != 2 || tally.Queries >= 100 {
		t.Errorf("clients ran on past their first failed write: %+v", tally)
	}
}
