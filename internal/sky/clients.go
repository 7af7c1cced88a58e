package sky

import (
	"fmt"
	"runtime"

	"selforg/internal/bpm"
	"selforg/internal/domain"
	"selforg/internal/shard"
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
	// Workload, Shards, Clients and WriteRatio are the run's coordinates.
	Workload   WorkloadName
	Shards     int
	Clients    int
	WriteRatio float64
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
// against one shared column built from scheme — split into
// independently locked shards when its Spec says so (internal/shard:
// each with its own model instance and delta store, sharing one buffer
// pool and virtual clock), its scans fanned out per its Parallelism (a
// sharded column keeps the single-knob bound across both levels, see
// shard.Column.SetParallelism). Every run gets a fresh column copy and a
// fresh buffer pool, like the serial Run. writeRatio of each client's
// operations become point writes (50% insert, 25% update, 25% delete).
func RunClients(ds *Dataset, scheme Scheme, name WorkloadName, cfg Config, clients int, writeRatio float64) *ClientsRunResult {
	queries := Queries(ds, name, cfg.Workload)
	pool := bpm.New(cfg.Pool)
	tr := &poolTracer{pool: pool}
	seg, err := shard.Build(scheme.spec(cfg, tr), ds.Domain(), ds.ScaledRA(), nil)
	if err != nil {
		panic(fmt.Sprintf("sky: %v", err))
	}
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
		Workload:      name,
		Shards:        max(scheme.Shards, 1),
		Clients:       clients,
		WriteRatio:    writeRatio,
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

// cell renders the run's value in the named table column.
func (r *ClientsRunResult) cell(col string) string {
	switch col {
	case "Workload":
		return string(r.Workload)
	case "Shards":
		return fmt.Sprint(r.Shards)
	case "Clients":
		return fmt.Sprint(r.Clients)
	case "Write%":
		return fmt.Sprintf("%.0f", r.WriteRatio*100)
	case "Select ms":
		return fmt.Sprintf("%.0f", r.SelectionMs)
	case "Adapt ms":
		return fmt.Sprintf("%.0f", r.AdaptationMs)
	case "Merges":
		return fmt.Sprint(r.Merges)
	case "Merged":
		return fmt.Sprint(r.MergedEntries)
	case "Segments", "Replicas":
		return fmt.Sprint(r.SegmentCount)
	case "Wall ms":
		return fmt.Sprint(r.Wall.Milliseconds())
	case "QPS", "OPS":
		return fmt.Sprintf("%.0f", r.OpsPerSec())
	case "QPS/client":
		return fmt.Sprintf("%.0f", r.OpsPerSec()/float64(r.Clients))
	}
	panic(fmt.Sprintf("sky: unknown column %q", col))
}

// apm15 is the scheme every multi-client table runs: the paper's best
// converger.
func apm15(cfg Config, replication bool) Scheme {
	s := Scheme{Name: "APM 1-5", Spec: apm(cfg.Mmin, cfg.MmaxSmall)}
	if replication {
		s.Name += " Repl"
		s.Strategy = shard.Replication
	}
	return s
}

// clientsTable is one multi-client experiment: a title, a column list
// and the grid of runs. Every combination of the axes, nested Workload >
// Shards > Clients > Write%, is one RunClients of apm15 and one row.
type clientsTable struct {
	title       string // formatted with GOMAXPROCS
	cols        []string
	replication bool
	parallelism int
	shards      []int
	clients     []int
	writes      []float64
}

// table runs the grid over ds.
func (t clientsTable) table(ds *Dataset, cfg Config) *stats.Table {
	tb := stats.NewTable(fmt.Sprintf(t.title, runtime.GOMAXPROCS(0)), t.cols...)
	scheme := apm15(cfg, t.replication)
	scheme.Parallelism = t.parallelism
	for _, w := range WorkloadNames() {
		for _, shards := range t.shards {
			scheme.Shards = shards
			for _, clients := range t.clients {
				for _, ratio := range t.writes {
					r := RunClients(ds, scheme, w, cfg, clients, ratio)
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

// run renders the table.
func (t clientsTable) run(ds *Dataset, cfg Config) string { return t.table(ds, cfg).Render() }

// The multi-client experiments run the APM 1-5 scheme, the paper's best
// converger. The virtual disk clock totals stay near the serial run —
// the same aggregate workload drives the same adaptation — while
// wall-clock throughput is free to scale with the host's cores. The
// replicated table is the serialization-win measurement of the
// persistent replica tree: its lock-free read path lets QPS scale where
// a tree-wide writer mutex would flatline it at the single-client rate.
// The sharded tables are the prototype side of the domain-sharding
// extension: read scaling (the router must not inflate scan volume) and
// writer scaling under write-heavy load, where Merges shows the
// per-shard merge-back churn.
var (
	concurrentTable = clientsTable{
		title:       "Concurrent clients on the SkyServer prototype (APM 1-5, GOMAXPROCS=%d)",
		cols:        []string{"Workload", "Clients", "Select ms", "Adapt ms", "Segments", "Wall ms", "QPS"},
		parallelism: 4,
		shards:      []int{1},
		clients:     []int{1, 2, 4, 8},
		writes:      []float64{0},
	}
	replicatedConcurrentTable = clientsTable{
		title:       "Concurrent clients on a replicated SkyServer column (APM 1-5 Repl, GOMAXPROCS=%d)",
		cols:        []string{"Workload", "Clients", "Select ms", "Adapt ms", "Replicas", "Wall ms", "QPS", "QPS/client"},
		replication: true,
		shards:      []int{1},
		clients:     []int{1, 2, 4, 8},
		writes:      []float64{0},
	}
	mixedTable = clientsTable{
		title:   "Mixed read-write clients on the SkyServer prototype (APM 1-5, GOMAXPROCS=%d)",
		cols:    []string{"Workload", "Clients", "Write%", "Select ms", "Adapt ms", "Merges", "Merged", "Segments", "OPS"},
		shards:  []int{1},
		clients: []int{1, 4},
		writes:  []float64{0.1, 0.3},
	}
	shardedTable = clientsTable{
		title:   "Domain-sharded concurrent clients on the SkyServer prototype (APM 1-5, GOMAXPROCS=%d)",
		cols:    []string{"Workload", "Shards", "Clients", "Select ms", "Adapt ms", "Segments", "Wall ms", "QPS"},
		shards:  []int{1, 2, 4},
		clients: []int{4},
		writes:  []float64{0},
	}
	shardedMixedTable = clientsTable{
		title:   "Domain-sharded mixed read-write clients on the SkyServer prototype (APM 1-5, GOMAXPROCS=%d)",
		cols:    []string{"Workload", "Shards", "Clients", "Write%", "Select ms", "Adapt ms", "Merges", "Merged", "Segments", "OPS"},
		shards:  []int{1, 2, 4},
		clients: []int{4},
		writes:  []float64{0.5},
	}
)
