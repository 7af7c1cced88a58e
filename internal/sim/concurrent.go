package sim

import (
	"fmt"
	"runtime"

	"selforg/internal/stats"
)

// runConcurrentExperiment is the "concurrent" experiment: both strategies
// under APM, scaled from 1 to 8 clients over the uniform workload. The
// interesting columns are throughput and the per-query read volume —
// adaptation converges to the same layout no matter how many clients
// drive it, so reads per query stay flat while QPS scales with the
// hardware (on a single-core host the rows mostly demonstrate safety,
// not speedup).
func runConcurrentExperiment(scale Scale) string {
	n := scale.queries(4000)
	tb := stats.NewTable(
		fmt.Sprintf("Concurrent query streams over one shared column (APM, uniform, sel 0.1, %d queries total, GOMAXPROCS=%d)",
			n, runtime.GOMAXPROCS(0)),
		"Strategy", "Clients", "Reads KB/q", "Splits", "Drops", "Segments", "Wall ms", "QPS")
	for _, strat := range []StrategyKind{Segmentation, Replication} {
		for _, clients := range []int{1, 2, 4, 8} {
			cfg := MixedConfig{Clients: clients, Parallelism: 4}
			cfg.Config = DefaultConfig()
			cfg.NumQueries = n
			cfg.Strategy = strat
			r := RunMixed(cfg)
			tb.AddRow(cfg.StrategyName(), fmt.Sprint(clients),
				fmt.Sprintf("%.1f", r.perQueryKB(r.Stats.ReadBytes)),
				fmt.Sprint(r.Stats.Splits), fmt.Sprint(r.Stats.Drops),
				fmt.Sprint(r.FinalSegments),
				fmt.Sprintf("%d", r.Wall.Milliseconds()),
				fmt.Sprintf("%.0f", r.OpsPerSec()))
		}
	}
	return tb.Render()
}

// runReplicatedConcurrentExperiment is the "replicated-concurrent"
// experiment — the serialization-win measurement of the persistent
// replica tree. A replication column is converged by a serial warmup,
// then 1–8 concurrent clients replay pure scan streams: before PR 5
// every one of those scans held the tree's writer mutex end to end, so
// QPS flatlined at the single-client rate regardless of client count;
// with the lock-free read path the aggregate throughput is free to
// scale with the host's cores (on a single-core host the rows mostly
// demonstrate that concurrency adds no serialization overhead).
func runReplicatedConcurrentExperiment(scale Scale) string {
	n := scale.queries(4000)
	tb := stats.NewTable(
		fmt.Sprintf("Concurrent scan streams over one converged replicated column (APM Repl, uniform, sel 0.1, %d queries total after %d warmup, GOMAXPROCS=%d)",
			n, n/2, runtime.GOMAXPROCS(0)),
		"Clients", "Reads KB/q", "Splits", "Drops", "Replicas", "Wall ms", "QPS", "QPS/client")
	for _, clients := range []int{1, 2, 4, 8} {
		cfg := MixedConfig{Clients: clients, WarmupQueries: n / 2}
		cfg.Config = DefaultConfig()
		cfg.NumQueries = n
		cfg.Strategy = Replication
		r := RunMixed(cfg)
		tb.AddRow(fmt.Sprint(clients),
			fmt.Sprintf("%.1f", r.perQueryKB(r.Stats.ReadBytes)),
			fmt.Sprint(r.Stats.Splits), fmt.Sprint(r.Stats.Drops),
			fmt.Sprint(r.FinalSegments),
			fmt.Sprintf("%d", r.Wall.Milliseconds()),
			fmt.Sprintf("%.0f", r.OpsPerSec()),
			fmt.Sprintf("%.0f", r.OpsPerSec()/float64(clients)))
	}
	return tb.Render()
}
