package sky

import (
	"fmt"
	"runtime"

	"selforg/internal/bpm"
	"selforg/internal/domain"
	"selforg/internal/stats"
	"selforg/internal/workload"
)

// Multi-client runs on the prototype harness: one workload's query
// stream is dealt round-robin across N clients (workload.Drive owns the
// goroutines, the read-or-write dice and the write mix) that hit a
// single shared column while it self-organizes. With WriteRatio 0 the
// aggregate workload is identical to the serial Run, only the
// interleaving is concurrent; with writes, a client's write takes the
// place of the query dealt to that slot and goes through the MVCC delta
// store, whose merge-back drains into the base under the same virtual
// disk clock — so the adaptation cost of absorbing writes shows up in
// the Figure-10 style time split.

// ClientsRunResult holds one multi-client (scheme, workload) run.
type ClientsRunResult struct {
	// Tally is what the clients executed: queries, writes, refused
	// update/delete attempts, summed statistics, wall time.
	workload.Tally
	// SelectionMs / AdaptationMs are the total virtual times on the disk
	// clock, summed over all clients (adaptation includes merge-back
	// rewrites).
	SelectionMs  float64
	AdaptationMs float64
	// Merges / MergedEntries summarize the delta store's checkpoints.
	Merges, MergedEntries int64
	// SegmentCount and StorageMB describe the column at the end.
	SegmentCount int
	StorageMB    float64
	// Pool is a snapshot of the buffer pool counters.
	Pool bpm.Stats
}

// RunClients replays the named workload across clients goroutines
// against one shared column, split into shards independently locked
// sub-columns when shards > 1 (internal/shard: each with its own model
// instance and delta store, sharing one buffer pool and virtual clock).
// Every run gets a fresh column copy and a fresh buffer pool, like the
// serial Run. parallelism is the per-query scan fan-out handed to the
// strategy (a sharded column keeps the single-knob bound across both
// levels, see shard.Column.SetParallelism); writeRatio of each client's
// operations become point writes (50% insert, 25% update, 25% delete).
func RunClients(ds *Dataset, scheme Scheme, name WorkloadName, cfg Config, clients, parallelism, shards int, writeRatio float64) *ClientsRunResult {
	queries := Queries(ds, name, cfg.Workload)
	pool := bpm.New(cfg.Pool)
	tr := &poolTracer{pool: pool}
	seg := buildStrategy(ds, scheme, cfg, tr, shards)
	if p, ok := seg.(interface{ SetParallelism(int) }); ok {
		p.SetParallelism(parallelism)
	}
	// Merge every 32 pending entries: the SkyServer workloads run only a
	// few hundred operations, so the threshold must be small for the
	// checkpoint churn to show up on the virtual clock.
	seg.SetDeltaPolicy(32*cfg.ElemSize, 0)
	tr.reset()

	mix := workload.Mix{WriteRatio: writeRatio, Dom: ds.Domain()}
	if writeRatio > 0 {
		mix.Victims = ds.ScaledRA()
	}
	deal := make([]workload.Client, clients)
	for cl := range deal {
		cl := cl
		deal[cl] = workload.Client{
			// Round-robin deal: client cl owns slots cl, cl+N, ...
			Ops:   (len(queries) - cl + clients - 1) / clients,
			Query: func(i int) workload.Query { return queries[cl+i*clients] },
			Seed:  1009 * int64(cl+1),
		}
	}
	tally, err := workload.Drive(seg, deal, mix)
	if err != nil {
		panic(fmt.Sprintf("sky: %v", err))
	}
	dst := seg.DeltaStats()
	return &ClientsRunResult{
		Tally:         tally,
		SelectionMs:   float64(tr.scanTime().Microseconds()) / 1000,
		AdaptationMs:  float64(tr.writeTime().Microseconds()) / 1000,
		Merges:        dst.Merges,
		MergedEntries: dst.MergedEntries,
		SegmentCount:  seg.SegmentCount(),
		StorageMB:     float64(seg.StorageBytes()) / float64(domain.MB),
		Pool:          pool.Stats(),
	}
}

// apm15 is the scheme every multi-client table runs: the paper's best
// converger.
func apm15(cfg Config, replication bool) Scheme {
	s := Scheme{Name: "APM 1-5", Kind: APMScheme, Mmin: cfg.Mmin, Mmax: cfg.MmaxSmall, Replication: replication}
	if replication {
		s.Name += " Repl"
	}
	return s
}

// ConcurrentTable runs the APM 1-5 segmentation scheme (the paper's best
// converger) under 1–8 concurrent clients per workload and tabulates
// virtual time, throughput and final layout. The virtual disk clock
// totals stay near the serial run — the same aggregate workload drives
// the same adaptation — while wall-clock throughput is free to scale
// with the host's cores.
func ConcurrentTable(ds *Dataset, cfg Config) *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Concurrent clients on the SkyServer prototype (APM 1-5, GOMAXPROCS=%d)",
			runtime.GOMAXPROCS(0)),
		"Workload", "Clients", "Select ms", "Adapt ms", "Segments", "Wall ms", "QPS")
	scheme := apm15(cfg, false)
	for _, w := range WorkloadNames() {
		for _, clients := range []int{1, 2, 4, 8} {
			r := RunClients(ds, scheme, w, cfg, clients, 4, 1, 0)
			tb.AddRow(string(w), fmt.Sprint(clients),
				fmt.Sprintf("%.0f", r.SelectionMs),
				fmt.Sprintf("%.0f", r.AdaptationMs),
				fmt.Sprint(r.SegmentCount),
				fmt.Sprintf("%d", r.Wall.Milliseconds()),
				fmt.Sprintf("%.0f", r.OpsPerSec()))
		}
	}
	return tb
}

// ReplicatedConcurrentTable is the serialization-win measurement of the
// persistent replica tree on the prototype: the APM 1-5 *replication*
// scheme under 1–8 concurrent clients per workload. Before PR 5 every
// replication scan held the tree's writer mutex end to end, so wall-clock
// throughput flatlined at the single-client rate; with the lock-free
// read path the aggregate QPS is free to scale with the host's cores
// (virtual disk-clock totals stay near the serial run — the same
// aggregate workload drives the same adaptation either way).
func ReplicatedConcurrentTable(ds *Dataset, cfg Config) *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Concurrent clients on a replicated SkyServer column (APM 1-5 Repl, GOMAXPROCS=%d)",
			runtime.GOMAXPROCS(0)),
		"Workload", "Clients", "Select ms", "Adapt ms", "Replicas", "Wall ms", "QPS", "QPS/client")
	scheme := apm15(cfg, true)
	for _, w := range WorkloadNames() {
		for _, clients := range []int{1, 2, 4, 8} {
			r := RunClients(ds, scheme, w, cfg, clients, 0, 1, 0)
			tb.AddRow(string(w), fmt.Sprint(clients),
				fmt.Sprintf("%.0f", r.SelectionMs),
				fmt.Sprintf("%.0f", r.AdaptationMs),
				fmt.Sprint(r.SegmentCount),
				fmt.Sprintf("%d", r.Wall.Milliseconds()),
				fmt.Sprintf("%.0f", r.OpsPerSec()),
				fmt.Sprintf("%.0f", r.OpsPerSec()/float64(clients)))
		}
	}
	return tb
}

// ShardedTable runs the APM 1-5 scheme with 4 concurrent clients across
// shard counts per workload — the prototype-side read-scaling check of
// the domain-sharding extension (virtual clock totals should stay near
// the unsharded run; the router must not inflate scan volume).
func ShardedTable(ds *Dataset, cfg Config) *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Domain-sharded concurrent clients on the SkyServer prototype (APM 1-5, GOMAXPROCS=%d)",
			runtime.GOMAXPROCS(0)),
		"Workload", "Shards", "Clients", "Select ms", "Adapt ms", "Segments", "Wall ms", "QPS")
	scheme := apm15(cfg, false)
	for _, w := range WorkloadNames() {
		for _, shards := range []int{1, 2, 4} {
			r := RunClients(ds, scheme, w, cfg, 4, 0, shards, 0)
			tb.AddRow(string(w), fmt.Sprint(shards), "4",
				fmt.Sprintf("%.0f", r.SelectionMs),
				fmt.Sprintf("%.0f", r.AdaptationMs),
				fmt.Sprint(r.SegmentCount),
				fmt.Sprintf("%d", r.Wall.Milliseconds()),
				fmt.Sprintf("%.0f", r.OpsPerSec()))
		}
	}
	return tb
}

// ShardedMixedTable runs the APM 1-5 segmentation scheme under
// write-heavy mixed load across shard counts — the prototype-side
// writer-scaling measurement of the domain-sharding extension. OPS is
// the writer-throughput column; Merges shows the per-shard merge-back
// churn.
func ShardedMixedTable(ds *Dataset, cfg Config) *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Domain-sharded mixed read-write clients on the SkyServer prototype (APM 1-5, GOMAXPROCS=%d)",
			runtime.GOMAXPROCS(0)),
		"Workload", "Shards", "Clients", "Write%", "Select ms", "Adapt ms", "Merges", "Merged", "Segments", "OPS")
	scheme := apm15(cfg, false)
	for _, w := range WorkloadNames() {
		for _, shards := range []int{1, 2, 4} {
			r := RunClients(ds, scheme, w, cfg, 4, 0, shards, 0.5)
			tb.AddRow(string(w), fmt.Sprint(shards), "4", "50",
				fmt.Sprintf("%.0f", r.SelectionMs),
				fmt.Sprintf("%.0f", r.AdaptationMs),
				fmt.Sprint(r.Merges),
				fmt.Sprint(r.MergedEntries),
				fmt.Sprint(r.SegmentCount),
				fmt.Sprintf("%.0f", r.OpsPerSec()))
		}
	}
	return tb
}

// MixedTable runs the APM 1-5 segmentation scheme under mixed
// read-write load per workload, across client counts and write ratios.
func MixedTable(ds *Dataset, cfg Config) *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Mixed read-write clients on the SkyServer prototype (APM 1-5, GOMAXPROCS=%d)",
			runtime.GOMAXPROCS(0)),
		"Workload", "Clients", "Write%", "Select ms", "Adapt ms", "Merges", "Merged", "Segments", "OPS")
	scheme := apm15(cfg, false)
	for _, w := range WorkloadNames() {
		for _, clients := range []int{1, 4} {
			for _, ratio := range []float64{0.1, 0.3} {
				r := RunClients(ds, scheme, w, cfg, clients, 0, 1, ratio)
				tb.AddRow(string(w), fmt.Sprint(clients),
					fmt.Sprintf("%.0f", ratio*100),
					fmt.Sprintf("%.0f", r.SelectionMs),
					fmt.Sprintf("%.0f", r.AdaptationMs),
					fmt.Sprint(r.Merges),
					fmt.Sprint(r.MergedEntries),
					fmt.Sprint(r.SegmentCount),
					fmt.Sprintf("%.0f", r.OpsPerSec()))
			}
		}
	}
	return tb
}
