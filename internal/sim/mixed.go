package sim

import (
	"fmt"
	"runtime"

	"selforg/internal/delta"
	"selforg/internal/domain"
	"selforg/internal/segment"
	"selforg/internal/shard"
	"selforg/internal/stats"
	"selforg/internal/workload"
)

// Multi-client runs: the workload space the paper's one-stream simulator
// cannot express. N clients share one self-organizing column; each
// operation is a range query with probability 1-WriteRatio, otherwise a
// point write through the MVCC delta store (workload.Drive owns the
// clients, the dice and the write mix). Writes trigger the
// self-organizing merge-back per the configured thresholds, so a run
// exercises the full loop: delta accumulation → overlay reads →
// merge-back → Segmenter/Replicator absorbing the merged rows.

// MixedConfig shapes a multi-client run. Its Spec's Parallelism is the
// per-query scan fan-out (concurrency across clients is independent of
// it) and DeltaMaxBytes the merge-back trigger (default 1 KB, small
// enough that the default 400 KB column sees merge churn within a few
// hundred writes); the ratio trigger is fixed at mixedDeltaRatio.
type MixedConfig struct {
	Config
	// Clients is the number of concurrent streams (default 4). Every
	// client runs NumQueries/Clients operations, its queries from its own
	// deterministic generator (QuerySeed offset by the client index).
	Clients int
	// WarmupQueries converges the column on one serial stream before the
	// timed multi-client section starts, so the measurement isolates the
	// steady state from the reorganization transient. 0 = no warmup.
	WarmupQueries int
	// WriteRatio is the fraction of operations that are point writes
	// (0 = read-only streams). Per write: 50% insert, 25% update, 25%
	// delete.
	WriteRatio float64
}

// mixedDeltaRatio is the mixed runs' pending-to-base merge-back ratio.
const mixedDeltaRatio = 0.05

// MixedResult aggregates a multi-client run.
type MixedResult struct {
	Cfg MixedConfig
	// Tally is what the clients executed: operation counts, the cost
	// measures summed over all clients, wall time and throughput.
	workload.Tally
	// Delta is a snapshot of the write store's final counters (Merges,
	// Pending, ...), FinalEncodings the per-encoding layout breakdown.
	Delta          delta.Stats
	FinalEncodings segment.EncodingStats
	// FinalSegments is the number of data-bearing segments at the end.
	FinalSegments int
}

// RunMixed executes the configured multi-client workload against one
// shared strategy while it self-organizes and returns the merged
// statistics with the final layout, delta counters and encoding
// breakdown.
func RunMixed(cfg MixedConfig) *MixedResult {
	cfg.Config = cfg.Config.withDefaults()
	if cfg.Clients < 1 {
		cfg.Clients = 4
	}
	if cfg.DeltaMaxBytes == 0 {
		cfg.DeltaMaxBytes = 1024
	}
	cfg.DeltaRatio = mixedDeltaRatio
	vals := cfg.generateValues()
	mix := workload.Mix{WriteRatio: cfg.WriteRatio, Dom: cfg.Dom}
	if mix.WriteRatio > 0 {
		// Update/delete targets; the strategy consumes the original slice.
		mix.Victims = append([]domain.Value(nil), vals...)
	}
	strat, err := shard.Build(cfg.Spec, cfg.Dom, vals, nil)
	if err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	warm := cfg.stream(cfg.QuerySeed + 7777)
	for i := 0; i < cfg.WarmupQueries; i++ {
		strat.Select(warm.Next().Range())
	}

	perClient := cfg.NumQueries / cfg.Clients
	if perClient < 1 {
		perClient = 1
	}
	clients := make([]workload.Client, cfg.Clients)
	for cl := range clients {
		gen := cfg.stream(cfg.QuerySeed + int64(cl))
		clients[cl] = workload.Client{
			Ops:   perClient,
			Query: func(int) workload.Query { return gen.Next() },
			Seed:  cfg.QuerySeed + 7919*int64(cl+1),
		}
	}
	tally, err := workload.Drive(strat, clients, mix)
	if err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	return &MixedResult{
		Cfg:            cfg,
		Tally:          tally,
		Delta:          strat.DeltaStats(),
		FinalEncodings: strat.EncodingStats(),
		FinalSegments:  strat.SegmentCount(),
	}
}

// perQueryKB averages a cost measure over the run's queries, in KB.
func (r *MixedResult) perQueryKB(bytes int64) float64 {
	if r.Queries == 0 {
		return 0
	}
	return float64(bytes) / float64(r.Queries) / float64(domain.KB)
}

// cell renders the run's value in the named table column.
func (r *MixedResult) cell(col string) string {
	switch col {
	case "Strategy":
		return r.Cfg.StrategyName()
	case "Shards":
		return fmt.Sprint(r.Cfg.Shards)
	case "Clients":
		return fmt.Sprint(r.Cfg.Clients)
	case "Write%":
		return fmt.Sprintf("%.0f", r.Cfg.WriteRatio*100)
	case "Queries":
		return fmt.Sprint(r.Queries)
	case "Writes":
		return fmt.Sprint(r.Writes)
	case "Merges":
		return fmt.Sprint(r.Delta.Merges)
	case "Merged":
		return fmt.Sprint(r.Delta.MergedEntries)
	case "Reads KB/q":
		return fmt.Sprintf("%.1f", r.perQueryKB(r.Stats.ReadBytes))
	case "Overlay KB/q":
		return fmt.Sprintf("%.2f", r.perQueryKB(r.Stats.DeltaReadBytes))
	case "Splits":
		return fmt.Sprint(r.Stats.Splits)
	case "Drops":
		return fmt.Sprint(r.Stats.Drops)
	case "Segments", "Replicas":
		return fmt.Sprint(r.FinalSegments)
	case "Wall ms":
		return fmt.Sprint(r.Wall.Milliseconds())
	case "QPS", "OPS":
		return fmt.Sprintf("%.0f", r.OpsPerSec())
	case "QPS/client":
		return fmt.Sprintf("%.0f", r.OpsPerSec()/float64(r.Cfg.Clients))
	}
	panic(fmt.Sprintf("sim: unknown column %q", col))
}

// clientsTable is one multi-client experiment: a title, a column list
// and the grid of runs. Every combination of the axes, nested Strategy >
// Shards > Clients > Write%, is one RunMixed over DefaultConfig with the
// table's knobs set (NumQueries is the op count), and one row.
type clientsTable struct {
	// title is formatted with the op count, GOMAXPROCS and the warmup
	// count, picked by explicit argument index (%[1]d, %[2]d, %[3]d).
	title      string
	cols       []string
	strategies []shard.Strategy
	shards     []int
	clients    []int
	writes     []float64
	knobs      func(*MixedConfig)
}

// table runs the grid at ops operations.
func (t clientsTable) table(ops int) *stats.Table {
	base := MixedConfig{Config: DefaultConfig()}
	base.NumQueries = ops
	if t.knobs != nil {
		t.knobs(&base)
	}
	tb := stats.NewTable(fmt.Sprintf(t.title, ops, runtime.GOMAXPROCS(0), base.WarmupQueries), t.cols...)
	for _, strat := range t.strategies {
		for _, shards := range t.shards {
			for _, clients := range t.clients {
				for _, ratio := range t.writes {
					cfg := base
					cfg.Strategy, cfg.Shards, cfg.Clients, cfg.WriteRatio = strat, shards, clients, ratio
					r := RunMixed(cfg)
					row := make([]string, len(t.cols))
					for i, col := range t.cols {
						row[i] = r.cell(col)
					}
					tb.AddRow(row...)
				}
			}
		}
	}
	return tb
}

// run renders the table at the scale's op count (4000 paper-faithful).
func (t clientsTable) run(scale Scale) string { return t.table(scale.queries(4000)).Render() }

// segmRepl is the strategy axis of every table that compares both.
var segmRepl = []shard.Strategy{shard.Segmentation, shard.Replication}

// The multi-client experiments, all under APM over uniform queries.
// Reads per query stay flat across client counts (adaptation converges
// to the same layout however many clients drive it) while QPS scales
// with the hardware — a single-core host mostly demonstrates safety, not
// speedup. The replicated table converges the column by a serial warmup
// first: its pure scan streams then measure the lock-free replica-tree
// read path. The write tables add merge-back activity (Merges, Merged
// rows), the splits the Segmenter keeps making while absorbing merged
// rows and the overlay volume the delta store adds per query; they merge
// every 64 pending entries, so the churn shows even on scaled-down
// (-queries) runs. The sharded tables measure the domain-sharding
// extension (internal/shard): the router must not cost read throughput,
// and writers on disjoint ranges stop contending on one lock.
var (
	concurrentTable = clientsTable{
		title:      "Concurrent query streams over one shared column (APM, uniform, sel 0.1, %[1]d queries total, GOMAXPROCS=%[2]d)",
		cols:       []string{"Strategy", "Clients", "Reads KB/q", "Splits", "Drops", "Segments", "Wall ms", "QPS"},
		strategies: segmRepl,
		shards:     []int{1},
		clients:    []int{1, 2, 4, 8},
		writes:     []float64{0},
		knobs:      func(c *MixedConfig) { c.Parallelism = 4 },
	}
	replicatedConcurrentTable = clientsTable{
		title:      "Concurrent scan streams over one converged replicated column (APM Repl, uniform, sel 0.1, %[1]d queries total after %[3]d warmup, GOMAXPROCS=%[2]d)",
		cols:       []string{"Clients", "Reads KB/q", "Splits", "Drops", "Replicas", "Wall ms", "QPS", "QPS/client"},
		strategies: []shard.Strategy{shard.Replication},
		shards:     []int{1},
		clients:    []int{1, 2, 4, 8},
		writes:     []float64{0},
		knobs:      func(c *MixedConfig) { c.WarmupQueries = c.NumQueries / 2 },
	}
	mixedTable = clientsTable{
		title:      "Mixed read-write streams over one shared column (APM, uniform, sel 0.1, %[1]d ops total, GOMAXPROCS=%[2]d)",
		cols:       []string{"Strategy", "Clients", "Write%", "Queries", "Writes", "Merges", "Merged", "Reads KB/q", "Overlay KB/q", "Splits", "Segments", "OPS"},
		strategies: segmRepl,
		shards:     []int{1},
		clients:    []int{1, 4},
		writes:     []float64{0.1, 0.3},
		knobs:      func(c *MixedConfig) { c.DeltaMaxBytes = 256 },
	}
	shardedTable = clientsTable{
		title:      "Domain-sharded column, concurrent read streams (APM, uniform, sel 0.1, %[1]d queries total, GOMAXPROCS=%[2]d)",
		cols:       []string{"Strategy", "Shards", "Clients", "Reads KB/q", "Splits", "Segments", "Wall ms", "QPS"},
		strategies: segmRepl,
		shards:     []int{1, 2, 4},
		clients:    []int{1, 4},
		writes:     []float64{0},
	}
	shardedMixedTable = clientsTable{
		title:      "Domain-sharded column, mixed read-write streams (APM, uniform, sel 0.1, %[1]d ops total, GOMAXPROCS=%[2]d)",
		cols:       []string{"Strategy", "Shards", "Clients", "Write%", "Writes", "Merges", "Merged", "Overlay KB/q", "Segments", "OPS"},
		strategies: segmRepl,
		shards:     []int{1, 2, 4},
		clients:    []int{4},
		writes:     []float64{0.5},
		knobs:      func(c *MixedConfig) { c.DeltaMaxBytes = 256 },
	}
)
