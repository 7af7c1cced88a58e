// Package sim is the architecture-conscious simulator of §6.1: it drives
// the adaptive strategies over a synthetic column and records the memory
// read/write behaviour per query — the measurements behind Figures 5–9 and
// Table 1.
//
// The paper's setup, reproduced by DefaultConfig: a column of 100K values
// drawn from a domain of 1M integers (4-byte values), 10K range-selection
// queries with selectivity 0.1 or 0.01, uniform or Zipf query placement,
// and APM bounds of 3KB/12KB.
package sim

import (
	"fmt"
	"math/rand"

	"selforg/internal/compress"
	"selforg/internal/core"
	"selforg/internal/domain"
	"selforg/internal/model"
	"selforg/internal/segment"
	"selforg/internal/shard"
	"selforg/internal/stats"
	"selforg/internal/workload"
)

// StrategyKind selects the self-organizing technique.
type StrategyKind int

const (
	// Segmentation is adaptive segmentation (§4).
	Segmentation StrategyKind = iota
	// Replication is adaptive replication (§5).
	Replication
)

func (k StrategyKind) String() string {
	switch k {
	case Segmentation:
		return "Segm"
	case Replication:
		return "Repl"
	default:
		return fmt.Sprintf("StrategyKind(%d)", int(k))
	}
}

// ModelKind selects the segmentation model.
type ModelKind int

const (
	// GD is the Gaussian Dice model (§3.2.1).
	GD ModelKind = iota
	// APM is the Adaptive Pagination Model (§3.2.2).
	APM
)

func (k ModelKind) String() string {
	switch k {
	case GD:
		return "GD"
	case APM:
		return "APM"
	default:
		return fmt.Sprintf("ModelKind(%d)", int(k))
	}
}

// Config describes one simulation run.
type Config struct {
	ColumnCount int          // values in the column (default 100_000)
	Dom         domain.Range // attribute domain (default [0, 999_999])
	ElemSize    int64        // accounted bytes per value (default 4)
	NumQueries  int          // queries to run (default 10_000)
	Selectivity float64      // fraction of tuples selected (default 0.1)
	Dist        workload.Kind
	Strategy    StrategyKind
	Model       ModelKind
	APMMin      int64 // default 3 KB
	APMMax      int64 // default 12 KB
	DataSeed    int64
	QuerySeed   int64
	ModelSeed   int64 // GD randomness
	// Compression selects the adaptive storage-encoding policy
	// (compress.Off keeps the paper-faithful uncompressed layout).
	Compression compress.Mode
	// LowCardinality draws the column from a small set of distinct values
	// (RLE/dictionary-friendly) instead of the paper's 1M-value domain —
	// the data shape of dimension-key and categorical columns.
	LowCardinality int
	// Shards range-partitions the domain into this many independently
	// locked shards (internal/shard); 0 or 1 keeps the single-shard
	// column. Each shard gets its own model instance and delta store.
	Shards int
}

// DefaultConfig returns the §6.1 experimental setup.
func DefaultConfig() Config {
	return Config{
		ColumnCount: 100_000,
		Dom:         domain.NewRange(0, 999_999),
		ElemSize:    4,
		NumQueries:  10_000,
		Selectivity: 0.1,
		Dist:        workload.KindUniform,
		Strategy:    Segmentation,
		Model:       APM,
		APMMin:      3 * int64(domain.KB),
		APMMax:      12 * int64(domain.KB),
		DataSeed:    1,
		QuerySeed:   2,
		ModelSeed:   3,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.ColumnCount == 0 {
		c.ColumnCount = d.ColumnCount
	}
	if c.Dom.IsEmpty() {
		c.Dom = d.Dom
	}
	if c.ElemSize == 0 {
		c.ElemSize = d.ElemSize
	}
	if c.NumQueries == 0 {
		c.NumQueries = d.NumQueries
	}
	if c.Selectivity == 0 {
		c.Selectivity = d.Selectivity
	}
	if c.APMMin == 0 {
		c.APMMin = d.APMMin
	}
	if c.APMMax == 0 {
		c.APMMax = d.APMMax
	}
	if c.DataSeed == 0 {
		c.DataSeed = d.DataSeed
	}
	if c.QuerySeed == 0 {
		c.QuerySeed = d.QuerySeed
	}
	if c.ModelSeed == 0 {
		c.ModelSeed = d.ModelSeed
	}
	return c
}

// StrategyName is the label used in the paper's figures, e.g. "GD Segm",
// "APM Repl"; compressed runs are suffixed "+C", sharded ones "x<K>sh".
func (c Config) StrategyName() string {
	name := fmt.Sprintf("%v %v", c.Model, c.Strategy)
	if c.Compression.Enabled() {
		name += " +C"
	}
	if c.Shards > 1 {
		name += fmt.Sprintf(" x%dsh", c.Shards)
	}
	return name
}

// buildModel instantiates the configured segmentation model for one
// shard (shard 0 is the whole column when unsharded); GD streams are
// decorrelated per shard.
func (c Config) buildModel(shardIdx int) model.Model {
	switch c.Model {
	case GD:
		return model.NewGaussianDice(model.ShardSeed(c.ModelSeed, shardIdx))
	case APM:
		return model.NewAPM(c.APMMin, c.APMMax)
	default:
		panic(fmt.Sprintf("sim: unknown model kind %d", c.Model))
	}
}

// generateValues draws the run's column data.
func (c Config) generateValues() []domain.Value {
	if c.LowCardinality > 0 {
		return GenerateLowCardColumn(c.ColumnCount, c.Dom, int64(c.LowCardinality), c.DataSeed)
	}
	return GenerateColumn(c.ColumnCount, c.Dom, c.DataSeed)
}

// buildStrategyOver instantiates the strategy over vals (consumed: the
// strategy takes ownership), sharding the domain when Shards > 1.
func (c Config) buildStrategyOver(vals []domain.Value) core.DeltaStrategy {
	buildOne := func(idx int, rng domain.Range, svals []domain.Value) core.DeltaStrategy {
		switch c.Strategy {
		case Segmentation:
			s := core.NewSegmenter(rng, svals, c.ElemSize, c.buildModel(idx), nil)
			s.SetCompression(c.Compression)
			return s
		case Replication:
			r := core.NewReplicator(rng, svals, c.ElemSize, c.buildModel(idx), nil)
			r.SetCompression(c.Compression)
			return r
		default:
			panic(fmt.Sprintf("sim: unknown strategy kind %d", c.Strategy))
		}
	}
	if c.Shards > 1 {
		sc, err := shard.New(c.Dom, vals, c.Shards, buildOne)
		if err != nil {
			panic(fmt.Sprintf("sim: %v", err))
		}
		return sc
	}
	return buildOne(0, c.Dom, vals)
}

// stream instantiates the configured query distribution under seed.
func (c Config) stream(seed int64) workload.Generator {
	return workload.Spec{
		Name:        c.StrategyName(),
		Dom:         c.Dom,
		Selectivity: c.Selectivity,
		Kind:        c.Dist,
		Seed:        seed,
	}.Build()
}

// GenerateColumn draws count values uniformly from dom — the "100K values
// taken from a domain of a 1M different integer values" of §6.1.
func GenerateColumn(count int, dom domain.Range, seed int64) []domain.Value {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]domain.Value, count)
	for i := range vals {
		vals[i] = dom.Lo + rng.Int63n(dom.Width())
	}
	return vals
}

// GenerateLowCardColumn draws count values from card distinct values
// spread evenly over dom — the categorical-column shape of the
// compression experiment.
func GenerateLowCardColumn(count int, dom domain.Range, card int64, seed int64) []domain.Value {
	if card < 1 {
		card = 1
	}
	rng := rand.New(rand.NewSource(seed))
	step := dom.Width() / card
	if step < 1 {
		step = 1
	}
	vals := make([]domain.Value, count)
	for i := range vals {
		vals[i] = dom.Lo + rng.Int63n(card)*step
	}
	return vals
}

// Result holds the per-query measurement series of one run.
type Result struct {
	Cfg Config
	// Writes is the per-query bytes written due to segment
	// materialization, query results included (Figures 5, 6).
	Writes *stats.Series
	// Reads is the per-query bytes read (Figure 7, Table 1).
	Reads *stats.Series
	// Storage is the physical materialized storage in bytes after each
	// query (Figures 8, 9; constant for uncompressed segmentation).
	Storage *stats.Series
	// Compressed is the physical storage series and Logical its
	// uncompressed counterpart; they coincide with compression off. The
	// gap is the storage the compression subsystem saves.
	Compressed *stats.Series
	Logical    *stats.Series
	// Splits and Drops total the reorganization activity; Recodes totals
	// the segments the compression advisor (re-)encoded.
	Splits  int
	Drops   int
	Recodes int
	// FinalSegments is the number of data-bearing segments at the end.
	FinalSegments int
	// FinalSegmentSizes lists their sizes in bytes.
	FinalSegmentSizes []float64
	// FinalEncodings is the per-encoding storage breakdown at the end
	// (all-plain with compression off).
	FinalEncodings segment.EncodingStats
	// ColumnBytes is the raw column size (the "DB size" line).
	ColumnBytes int64
}

// Run executes the configured simulation.
func Run(cfg Config) *Result {
	cfg = cfg.withDefaults()
	strat := cfg.buildStrategyOver(cfg.generateValues())
	gen := cfg.stream(cfg.QuerySeed)

	res := &Result{
		Cfg:         cfg,
		Writes:      stats.NewSeries(cfg.StrategyName()),
		Reads:       stats.NewSeries(cfg.StrategyName()),
		Storage:     stats.NewSeries(cfg.StrategyName()),
		Compressed:  stats.NewSeries(cfg.StrategyName() + " phys"),
		Logical:     stats.NewSeries(cfg.StrategyName() + " logical"),
		ColumnBytes: int64(cfg.ColumnCount) * cfg.ElemSize,
	}
	for i := 0; i < cfg.NumQueries; i++ {
		q := gen.Next()
		_, st := strat.Select(q.Range())
		res.Writes.Append(float64(st.WriteBytes))
		res.Reads.Append(float64(st.ReadBytes))
		res.Storage.Append(float64(strat.StorageBytes()))
		res.Compressed.Append(float64(st.CompressedBytes))
		res.Logical.Append(float64(st.StorageBytes))
		res.Splits += st.Splits
		res.Drops += st.Drops
		res.Recodes += st.Recodes
	}
	res.FinalSegments = strat.SegmentCount()
	res.FinalSegmentSizes = strat.SegmentSizes()
	res.FinalEncodings = strat.EncodingStats()
	return res
}

// AvgReadKB returns the average per-query read volume in KB over the whole
// run — the cells of Table 1.
func (r *Result) AvgReadKB() float64 {
	return r.Reads.Mean() / float64(domain.KB)
}
