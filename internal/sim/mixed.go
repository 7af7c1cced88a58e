package sim

import (
	"fmt"
	"runtime"

	"selforg/internal/delta"
	"selforg/internal/domain"
	"selforg/internal/segment"
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

// MixedConfig shapes a multi-client run.
type MixedConfig struct {
	Config
	// Clients is the number of concurrent streams (default 4). Every
	// client runs NumQueries/Clients operations, its queries from its own
	// deterministic generator (QuerySeed offset by the client index).
	Clients int
	// Parallelism is the per-query scan fan-out handed to the strategy
	// (0 = its adaptive default, 1 = serial scans; concurrency across
	// clients is independent of this knob).
	Parallelism int
	// WarmupQueries converges the column on one serial stream before the
	// timed multi-client section starts, so the measurement isolates the
	// steady state from the reorganization transient. 0 = no warmup.
	WarmupQueries int
	// WriteRatio is the fraction of operations that are point writes
	// (0 = read-only streams). Per write: 50% insert, 25% update, 25%
	// delete.
	WriteRatio float64
	// DeltaMaxBytes is the merge-back trigger handed to the strategy
	// (default 1 KB, beside a fixed pending-to-base ratio of
	// mixedDeltaRatio — small enough that the default 400 KB column sees
	// merge churn within a few hundred writes).
	DeltaMaxBytes int64
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
	vals := cfg.generateValues()
	mix := workload.Mix{WriteRatio: cfg.WriteRatio, Dom: cfg.Dom}
	if mix.WriteRatio > 0 {
		// Update/delete targets; the strategy consumes the original slice.
		mix.Victims = append([]domain.Value(nil), vals...)
	}
	strat := cfg.buildStrategyOver(vals)
	if p, ok := strat.(interface{ SetParallelism(int) }); ok {
		p.SetParallelism(cfg.Parallelism)
	}
	strat.SetDeltaPolicy(cfg.DeltaMaxBytes, mixedDeltaRatio)
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

// runMixedExperiment is the "mixed" experiment: both strategies under
// APM over uniform queries, scaled across client counts and write
// ratios. The interesting columns are the merge-back activity (Merges,
// Merged rows) and the split counts — the Segmenter keeps reorganizing
// while absorbing merged rows — plus the overlay read volume the delta
// store adds per query.
func runMixedExperiment(scale Scale) string {
	n := scale.queries(4000)
	tb := stats.NewTable(
		fmt.Sprintf("Mixed read-write streams over one shared column (APM, uniform, sel 0.1, %d ops total, GOMAXPROCS=%d)",
			n, runtime.GOMAXPROCS(0)),
		"Strategy", "Clients", "Write%", "Queries", "Writes", "Merges", "Merged", "Reads KB/q", "Overlay KB/q", "Splits", "Segments", "OPS")
	for _, strat := range []StrategyKind{Segmentation, Replication} {
		for _, clients := range []int{1, 4} {
			for _, ratio := range []float64{0.1, 0.3} {
				// Merge every 64 pending entries so the checkpoint churn is
				// visible even on scaled-down (-queries) runs.
				cfg := MixedConfig{WriteRatio: ratio, DeltaMaxBytes: 256}
				cfg.Config = DefaultConfig()
				cfg.NumQueries = n
				cfg.Strategy = strat
				cfg.Clients = clients
				r := RunMixed(cfg)
				tb.AddRow(cfg.StrategyName(), fmt.Sprint(clients),
					fmt.Sprintf("%.0f", ratio*100),
					fmt.Sprint(r.Queries), fmt.Sprint(r.Writes),
					fmt.Sprint(r.Delta.Merges), fmt.Sprint(r.Delta.MergedEntries),
					fmt.Sprintf("%.1f", r.perQueryKB(r.Stats.ReadBytes)),
					fmt.Sprintf("%.2f", r.perQueryKB(r.Stats.DeltaReadBytes)),
					fmt.Sprint(r.Stats.Splits),
					fmt.Sprint(r.FinalSegments),
					fmt.Sprintf("%.0f", r.OpsPerSec()))
			}
		}
	}
	return tb.Render()
}
