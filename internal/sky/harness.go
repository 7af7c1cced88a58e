package sky

import (
	"fmt"
	"sync/atomic"
	"time"

	"selforg/internal/bpm"
	"selforg/internal/compress"
	"selforg/internal/domain"
	"selforg/internal/shard"
	"selforg/internal/stats"
	"selforg/internal/workload"
)

// Scheme is one of the evaluated configurations of §6.2: a non-segmented
// baseline or adaptive segmentation under GD / APM 1–25 MB / APM 1–5 MB.
// Schemes that replicate or compress are our extension experiments: the
// paper's prototype section only reports adaptive segmentation over
// plain storage.
type Scheme struct {
	Name string
	// Spec is the scheme's strategy stack; every run sets its element
	// size, tracer and merge-back trigger (see Scheme.spec).
	shard.Spec
}

// apm is an APM scheme's stack with bounds [mmin, mmax].
func apm(mmin, mmax int64) shard.Spec {
	return shard.Spec{Model: shard.APM, APMMin: mmin, APMMax: mmax}
}

// spec completes the scheme's stack for one run: cfg's element size and
// tr attached to every shard (registering the initial column advances
// the tracer's clock; callers reset it before the first query). Writes merge every 32 pending entries: the
// SkyServer workloads run only a few hundred operations, so the
// threshold must be small for the checkpoint churn to show up on the
// virtual clock.
func (s Scheme) spec(cfg Config, tr *poolTracer) shard.Spec {
	spec := s.Spec
	spec.ElemSize = cfg.ElemSize
	spec.Tracer = tr
	spec.DeltaMaxBytes = 32 * cfg.ElemSize
	return spec
}

// Config shapes a prototype run.
type Config struct {
	// NumValues in the ra column. The default (44M values, 176 MB at 4
	// accounted bytes each) approximates the paper's ra column: Table 2's
	// APM 1-25 row (23 segments averaging 7.6 MB) implies roughly 175 MB.
	NumValues int
	DataSeed  int64
	// ElemSize is the accounted bytes per value (ra is a 4-byte real).
	ElemSize int64
	// Pool configures the buffer and the virtual clock.
	Pool bpm.Config
	// Mmin and the two Mmax variants for the APM schemes (§6.2: "two
	// versions of the APM model with Mmax set to 5MB and 25MB,
	// respectively, and Mmin set to 1MB").
	Mmin, MmaxSmall, MmaxLarge int64
	// Workload shaping.
	Workload WorkloadConfig
	// MovingAvgWindow for the Figures 12/14/16 series.
	MovingAvgWindow int
}

// DefaultConfig returns the §6.2 setup scaled per DESIGN.md.
func DefaultConfig() Config {
	return Config{
		NumValues:       44_000_000,
		DataSeed:        5,
		ElemSize:        4,
		Pool:            bpm.DefaultConfig(),
		Mmin:            1 << 20,
		MmaxSmall:       5 << 20,
		MmaxLarge:       25 << 20,
		Workload:        DefaultWorkloadConfig(),
		MovingAvgWindow: 20,
	}
}

// Schemes returns the four evaluated schemes in the paper's order:
// NoSegm, GD, APM 1-25, APM 1-5.
func (c Config) Schemes() []Scheme {
	return []Scheme{
		{Name: "NoSegm", Spec: shard.Spec{Model: shard.None}},
		{Name: "GD", Spec: shard.Spec{Model: shard.GD, GDSeed: 99}},
		{Name: "APM 1-25", Spec: apm(c.Mmin, c.MmaxLarge)},
		{Name: "APM 1-5", Spec: apm(c.Mmin, c.MmaxSmall)},
	}
}

// ReplicationSchemes returns the extension configurations: adaptive
// replication under the same models, against the same baseline. The paper
// evaluates only segmentation on the prototype; these rows extend
// Figure 10 to the second strategy.
func (c Config) ReplicationSchemes() []Scheme {
	out := c.Schemes()
	for i := 1; i < len(out); i++ {
		out[i].Name += " Repl"
		out[i].Strategy = shard.Replication
	}
	return out
}

// CompressionSchemes returns the compression extension configurations:
// the two APM segmentation schemes with the advisor-driven encodings on,
// against their plain twins. Encoding decisions piggy-back on the same
// splits, so any time or storage difference is the subsystem's doing.
func (c Config) CompressionSchemes() []Scheme {
	var out []Scheme
	for _, s := range c.Schemes()[2:] {
		comp := s
		comp.Name += " +C"
		comp.Compression = compress.Auto
		out = append(out, s, comp)
	}
	return out
}

// poolTracer routes segment lifecycle events into the buffer pool and
// splits the virtual time into selection (scans) and adaptation
// (materialization) components, the two bars of Figure 10. The counters
// are atomics because multi-client runs (RunClients) call the tracer from
// several querying goroutines; TouchOrRetired covers snapshot readers
// racing a concurrent reorganization.
type poolTracer struct {
	pool    *bpm.Pool
	scanNs  atomic.Int64
	writeNs atomic.Int64
}

func (t *poolTracer) Scan(id, bytes int64) {
	d, _ := t.pool.TouchOrRetired(id, bytes)
	t.scanNs.Add(int64(d))
}

func (t *poolTracer) Materialize(id, bytes int64) {
	t.writeNs.Add(int64(t.pool.Register(id, bytes)))
}

func (t *poolTracer) Drop(id, _ int64) {
	t.pool.Free(id)
}

func (t *poolTracer) reset() {
	t.scanNs.Store(0)
	t.writeNs.Store(0)
}

func (t *poolTracer) scanTime() time.Duration  { return time.Duration(t.scanNs.Load()) }
func (t *poolTracer) writeTime() time.Duration { return time.Duration(t.writeNs.Load()) }

// RunResult holds one (scheme, workload) run of the prototype.
type RunResult struct {
	Scheme   string
	Workload WorkloadName
	// SelectionMs and AdaptationMs are per-query virtual times; TotalMs is
	// their sum (the series behind Figures 10–16).
	SelectionMs  *stats.Series
	AdaptationMs *stats.Series
	TotalMs      *stats.Series
	// Segment statistics at the end of the run (Table 2).
	SegmentCount    int
	SegSizeMeanMB   float64
	SegSizeStdDevMB float64
	// StorageMB is the final physical materialized storage; PeakStorageMB
	// the maximum observed after any query (exceeds the column size for
	// replication schemes until fully-replicated parents are dropped).
	// LogicalMB is the uncompressed storage and CompressionRatio the
	// logical/physical quotient (1 with compression off).
	StorageMB        float64
	PeakStorageMB    float64
	LogicalMB        float64
	CompressionRatio float64
	// WallTime is the real elapsed time of the query loop.
	WallTime time.Duration
	// Pool is a snapshot of the buffer pool counters.
	Pool bpm.Stats
}

// Run executes one scheme against a pre-generated query stream over the
// dataset. Every run gets a fresh column copy and a fresh buffer pool so
// schemes never share cache state.
func Run(ds *Dataset, scheme Scheme, queries []workload.Query, cfg Config) *RunResult {
	pool := bpm.New(cfg.Pool)
	tr := &poolTracer{pool: pool}
	seg, err := shard.Build(scheme.spec(cfg, tr), ds.Domain(), ds.ScaledRA(), nil)
	if err != nil {
		panic(fmt.Sprintf("sky: %v", err))
	}

	res := &RunResult{
		Scheme:       scheme.Name,
		Workload:     "",
		SelectionMs:  stats.NewSeries(scheme.Name),
		AdaptationMs: stats.NewSeries(scheme.Name),
		TotalMs:      stats.NewSeries(scheme.Name),
	}
	start := time.Now()
	var peak int64
	for _, q := range queries {
		tr.reset()
		_, _ = seg.Select(q.Range())
		sel := float64(tr.scanTime().Microseconds()) / 1000
		ad := float64(tr.writeTime().Microseconds()) / 1000
		res.SelectionMs.Append(sel)
		res.AdaptationMs.Append(ad)
		res.TotalMs.Append(sel + ad)
		if b := int64(seg.StorageBytes()); b > peak {
			peak = b
		}
	}
	res.PeakStorageMB = float64(peak) / float64(domain.MB)
	res.WallTime = time.Since(start)
	res.Pool = pool.Stats()

	sizes := seg.SegmentSizes()
	sum := stats.Summarize(sizes)
	res.SegmentCount = sum.N
	res.SegSizeMeanMB = sum.Mean / float64(domain.MB)
	res.SegSizeStdDevMB = sum.StdDev / float64(domain.MB)
	res.StorageMB = float64(seg.StorageBytes()) / float64(domain.MB)
	res.LogicalMB = float64(seg.UncompressedBytes()) / float64(domain.MB)
	res.CompressionRatio = 1
	if res.StorageMB > 0 {
		res.CompressionRatio = res.LogicalMB / res.StorageMB
	}
	return res
}

// RunWorkloadWith runs an explicit scheme list against the named workload
// (used for the replication extension rows).
func RunWorkloadWith(ds *Dataset, name WorkloadName, cfg Config, schemes []Scheme) []*RunResult {
	queries := Queries(ds, name, cfg.Workload)
	out := make([]*RunResult, 0, len(schemes))
	for _, s := range schemes {
		r := Run(ds, s, queries, cfg)
		r.Workload = name
		out = append(out, r)
	}
	return out
}

// RunWorkload runs every scheme against the named workload. The query
// stream is generated once and replayed identically for each scheme.
func RunWorkload(ds *Dataset, name WorkloadName, cfg Config) []*RunResult {
	queries := Queries(ds, name, cfg.Workload)
	out := make([]*RunResult, 0, 4)
	for _, s := range cfg.Schemes() {
		r := Run(ds, s, queries, cfg)
		r.Workload = name
		out = append(out, r)
	}
	return out
}
