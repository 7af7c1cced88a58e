package sky

import (
	"fmt"
	"sync/atomic"
	"time"

	"selforg/internal/bpm"
	"selforg/internal/compress"
	"selforg/internal/core"
	"selforg/internal/domain"
	"selforg/internal/model"
	"selforg/internal/shard"
	"selforg/internal/stats"
	"selforg/internal/workload"
)

// Scheme is one of the evaluated configurations of §6.2: a non-segmented
// baseline or adaptive segmentation under GD / APM 1–25 MB / APM 1–5 MB.
// Replication marks the extension schemes (the paper's prototype section
// only reports adaptive segmentation; the replication run is our
// extension experiment).
type Scheme struct {
	Name        string
	Kind        SchemeKind
	Mmin        int64 // APM only
	Mmax        int64 // APM only
	GDSeed      int64 // GD only
	Replication bool
	// Compression attaches the adaptive per-segment encoding subsystem
	// (compress.Off = paper-faithful plain storage).
	Compression compress.Mode
}

// SchemeKind distinguishes the model behind a scheme.
type SchemeKind int

const (
	// NoSegm runs without segmentation: every query scans the column.
	NoSegm SchemeKind = iota
	// GDScheme uses the Gaussian Dice model.
	GDScheme
	// APMScheme uses the Adaptive Pagination Model.
	APMScheme
)

// buildModel instantiates the scheme's model for one shard (shard 0 is
// the whole column when unsharded); GD streams are decorrelated per
// shard.
func (s Scheme) buildModel(shardIdx int) model.Model {
	switch s.Kind {
	case NoSegm:
		return model.Never{}
	case GDScheme:
		return model.NewGaussianDice(model.ShardSeed(s.GDSeed, shardIdx))
	case APMScheme:
		return model.NewAPM(s.Mmin, s.Mmax)
	default:
		panic(fmt.Sprintf("sky: unknown scheme kind %d", s.Kind))
	}
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
		{Name: "NoSegm", Kind: NoSegm},
		{Name: "GD", Kind: GDScheme, GDSeed: 99},
		{Name: "APM 1-25", Kind: APMScheme, Mmin: c.Mmin, Mmax: c.MmaxLarge},
		{Name: "APM 1-5", Kind: APMScheme, Mmin: c.Mmin, Mmax: c.MmaxSmall},
	}
}

// ReplicationSchemes returns the extension configurations: adaptive
// replication under the same models, against the same baseline. The paper
// evaluates only segmentation on the prototype; these rows extend
// Figure 10 to the second strategy.
func (c Config) ReplicationSchemes() []Scheme {
	return []Scheme{
		{Name: "NoSegm", Kind: NoSegm},
		{Name: "GD Repl", Kind: GDScheme, GDSeed: 99, Replication: true},
		{Name: "APM 1-25 Repl", Kind: APMScheme, Mmin: c.Mmin, Mmax: c.MmaxLarge, Replication: true},
		{Name: "APM 1-5 Repl", Kind: APMScheme, Mmin: c.Mmin, Mmax: c.MmaxSmall, Replication: true},
	}
}

// CompressionSchemes returns the compression extension configurations:
// the two APM segmentation schemes with the advisor-driven encodings on,
// against their plain twins. Encoding decisions piggy-back on the same
// splits, so any time or storage difference is the subsystem's doing.
func (c Config) CompressionSchemes() []Scheme {
	return []Scheme{
		{Name: "APM 1-25", Kind: APMScheme, Mmin: c.Mmin, Mmax: c.MmaxLarge},
		{Name: "APM 1-25 +C", Kind: APMScheme, Mmin: c.Mmin, Mmax: c.MmaxLarge, Compression: compress.Auto},
		{Name: "APM 1-5", Kind: APMScheme, Mmin: c.Mmin, Mmax: c.MmaxSmall},
		{Name: "APM 1-5 +C", Kind: APMScheme, Mmin: c.Mmin, Mmax: c.MmaxSmall, Compression: compress.Auto},
	}
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

// buildStrategy constructs the scheme's strategy over a fresh copy of
// the dataset's ra column, domain-sharded when shards > 1, with tr
// attached to every shard. Registering the initial column advances the
// tracer's clock; callers reset it before the first query.
func buildStrategy(ds *Dataset, scheme Scheme, cfg Config, tr *poolTracer, shards int) core.DeltaStrategy {
	buildOne := func(idx int, rng domain.Range, vals []domain.Value) core.DeltaStrategy {
		if scheme.Replication {
			r := core.NewReplicator(rng, vals, cfg.ElemSize, scheme.buildModel(idx), tr)
			r.SetCompression(scheme.Compression)
			return r
		}
		s := core.NewSegmenter(rng, vals, cfg.ElemSize, scheme.buildModel(idx), tr)
		s.SetCompression(scheme.Compression)
		return s
	}
	if shards > 1 {
		sc, err := shard.New(ds.Domain(), ds.ScaledRA(), shards, buildOne)
		if err != nil {
			panic(fmt.Sprintf("sky: %v", err))
		}
		return sc
	}
	return buildOne(0, ds.Domain(), ds.ScaledRA())
}

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
	seg := buildStrategy(ds, scheme, cfg, tr, 1)

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
