package sim

import (
	"fmt"
	"runtime"

	"selforg/internal/stats"
)

// Sharded-column experiments: the domain-sharding extension
// (internal/shard) measured by the two workload spaces it targets.
// "sharded" scales concurrent read streams across shard counts — the
// router must not cost read throughput — and "sharded-mixed" scales
// concurrent writers, where per-shard writer locks and per-shard delta
// stores are the whole point: writers on disjoint domain ranges stop
// contending on one lock, so OPS should rise with the shard count on
// multi-core hosts (single-core containers mostly demonstrate safety).

// runShardedExperiment is the "sharded" experiment: read-only concurrent
// streams over 1, 2 and 4 shards, both strategies under APM.
func runShardedExperiment(scale Scale) string {
	n := scale.queries(4000)
	tb := stats.NewTable(
		fmt.Sprintf("Domain-sharded column, concurrent read streams (APM, uniform, sel 0.1, %d queries total, GOMAXPROCS=%d)",
			n, runtime.GOMAXPROCS(0)),
		"Strategy", "Shards", "Clients", "Reads KB/q", "Splits", "Segments", "Wall ms", "QPS")
	for _, strat := range []StrategyKind{Segmentation, Replication} {
		for _, shards := range []int{1, 2, 4} {
			for _, clients := range []int{1, 4} {
				cfg := MixedConfig{Clients: clients}
				cfg.Config = DefaultConfig()
				cfg.NumQueries = n
				cfg.Strategy = strat
				cfg.Shards = shards
				r := RunMixed(cfg)
				tb.AddRow(cfg.StrategyName(), fmt.Sprint(shards), fmt.Sprint(clients),
					fmt.Sprintf("%.1f", r.perQueryKB(r.Stats.ReadBytes)),
					fmt.Sprint(r.Stats.Splits),
					fmt.Sprint(r.FinalSegments),
					fmt.Sprintf("%d", r.Wall.Milliseconds()),
					fmt.Sprintf("%.0f", r.OpsPerSec()))
			}
		}
	}
	return tb.Render()
}

// runShardedMixedExperiment is the "sharded-mixed" experiment: the mixed
// read-write driver across shard counts at a write-heavy ratio. The
// interesting columns are OPS (writer scaling) and Merges (per-shard
// merge-back churn).
func runShardedMixedExperiment(scale Scale) string {
	n := scale.queries(4000)
	tb := stats.NewTable(
		fmt.Sprintf("Domain-sharded column, mixed read-write streams (APM, uniform, sel 0.1, %d ops total, GOMAXPROCS=%d)",
			n, runtime.GOMAXPROCS(0)),
		"Strategy", "Shards", "Clients", "Write%", "Writes", "Merges", "Merged", "Overlay KB/q", "Segments", "OPS")
	for _, strat := range []StrategyKind{Segmentation, Replication} {
		for _, shards := range []int{1, 2, 4} {
			cfg := MixedConfig{WriteRatio: 0.5, DeltaMaxBytes: 256}
			cfg.Config = DefaultConfig()
			cfg.NumQueries = n
			cfg.Strategy = strat
			cfg.Shards = shards
			cfg.Clients = 4
			r := RunMixed(cfg)
			tb.AddRow(cfg.StrategyName(), fmt.Sprint(shards), fmt.Sprint(cfg.Clients),
				fmt.Sprintf("%.0f", cfg.WriteRatio*100),
				fmt.Sprint(r.Writes),
				fmt.Sprint(r.Delta.Merges), fmt.Sprint(r.Delta.MergedEntries),
				fmt.Sprintf("%.2f", r.perQueryKB(r.Stats.DeltaReadBytes)),
				fmt.Sprint(r.FinalSegments),
				fmt.Sprintf("%.0f", r.OpsPerSec()))
		}
	}
	return tb.Render()
}
