package workload

import (
	"math/rand"
	"sync"
	"time"

	"selforg/internal/core"
	"selforg/internal/domain"
)

// The multi-client driver: the one place the reproduction harnesses
// (internal/sim, internal/sky) turn query streams into concurrent load
// on a shared self-organizing column. It owns the goroutine fan-out, the
// wall clock, the read-or-write dice and the write mix; a harness
// supplies the column, each client's stream and what it wants measured
// around the run. Every client tallies locally and the tallies are
// merged after the last client returns, so the driver adds no
// synchronization of its own to the measured path.

// Target is the part of a column the clients exercise; both core
// strategies and the shard router satisfy it.
type Target interface {
	Select(q domain.Range) ([]domain.Value, core.QueryStats)
	Insert(v domain.Value) (core.QueryStats, error)
	Update(old, new domain.Value) (bool, core.QueryStats, error)
	Delete(v domain.Value) (bool, core.QueryStats, error)
}

// Client is one client's share of a run: Ops operations on its own
// goroutine. Query(i) is asked for operation i's range only when the
// dice make operation i a read, so a stream may be positional (a slice
// dealt round-robin, where a write uses up its slot) or sequential (a
// generator that advances per read). Seed seeds the client's dice.
type Client struct {
	Ops   int
	Query func(i int) Query
	Seed  int64
}

// Mix is the write side of a run. Each operation is a point write with
// probability WriteRatio (0 = a read-only run): half inserts of a
// uniform value from Dom, a quarter updates of a Victims sample to such
// a value, a quarter deletes of a Victims sample. Victims is only read,
// and only when WriteRatio > 0.
type Mix struct {
	WriteRatio float64
	Dom        domain.Range
	Victims    []domain.Value
}

// Tally is what a run (or one client of it) executed: Queries reads and
// Writes point writes, of which Misses updates/deletes found no visible
// row, the sum of every operation's statistics, and — for a whole run —
// the wall-clock time of the fan-out.
type Tally struct {
	Queries, Writes, Misses int
	Stats                   core.QueryStats
	Wall                    time.Duration
}

// OpsPerSec is the aggregate throughput, reads and writes, over Wall.
func (t Tally) OpsPerSec() float64 {
	if sec := t.Wall.Seconds(); sec > 0 {
		return float64(t.Queries+t.Writes) / sec
	}
	return 0
}

// Drive runs every client on its own goroutine against t and returns the
// merged tally. A client stops at its first write error (a failed
// merge-back, not a miss); Drive reports the first such error by client
// order next to the tally of what did run.
func Drive(t Target, clients []Client, mix Mix) (Tally, error) {
	tallies := make([]Tally, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tallies[i], errs[i] = clients[i].run(t, mix)
		}(i)
	}
	wg.Wait()
	total := Tally{Wall: time.Since(start)}
	var first error
	for i, c := range tallies {
		total.Queries += c.Queries
		total.Writes += c.Writes
		total.Misses += c.Misses
		total.Stats.Add(c.Stats)
		if first == nil {
			first = errs[i]
		}
	}
	return total, first
}

// run executes the client's operations in order.
func (c Client) run(t Target, mix Mix) (Tally, error) {
	var (
		tally Tally
		rnd   = rand.New(rand.NewSource(c.Seed))
		value = func() domain.Value { return mix.Dom.Lo + rnd.Int63n(mix.Dom.Width()) }
		prey  = func() domain.Value { return mix.Victims[rnd.Intn(len(mix.Victims))] }
	)
	for i := 0; i < c.Ops; i++ {
		if rnd.Float64() >= mix.WriteRatio {
			_, st := t.Select(c.Query(i).Range())
			tally.Stats.Add(st)
			tally.Queries++
			continue
		}
		tally.Writes++
		var (
			hit = true
			st  core.QueryStats
			err error
		)
		switch rnd.Intn(4) {
		case 0, 1:
			st, err = t.Insert(value())
		case 2:
			old := prey()
			hit, st, err = t.Update(old, value())
		default:
			hit, st, err = t.Delete(prey())
		}
		if err != nil {
			return tally, err
		}
		tally.Stats.Add(st)
		if !hit {
			tally.Misses++
		}
	}
	return tally, nil
}
