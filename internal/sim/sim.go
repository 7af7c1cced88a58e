// Package sim is the architecture-conscious simulator of §6.1: it drives
// the adaptive strategies over a synthetic column and records the memory
// read/write behaviour per query — the measurements behind Figures 5–9 and
// Table 1.
//
// The paper's setup, reproduced by DefaultConfig: a column of 100K values
// drawn from a domain of 1M integers (4-byte values), 10K range-selection
// queries with selectivity 0.1 or 0.01, uniform or Zipf query placement,
// and APM bounds of 3KB/12KB. A Config embeds the strategy stack as a
// shard.Spec, built by shard.Build like every other column.
//
// Beyond the paper's single stream, RunMixed drives N clients — reads and
// point writes — against one shared column; the five multi-client
// experiments (concurrent, replicated-concurrent, mixed, sharded,
// sharded-mixed) are declarations of one table writer over it.
package sim

import (
	"cmp"
	"fmt"
	"math/rand"

	"selforg/internal/domain"
	"selforg/internal/segment"
	"selforg/internal/shard"
	"selforg/internal/stats"
	"selforg/internal/workload"
)

// Config describes one simulation run: the strategy stack it builds
// (shard.Spec) over the data and query stream it generates.
type Config struct {
	// Spec is the strategy stack: strategy, model, APM bounds, GD seed
	// (default 3), accounted bytes per value (default 4), compression,
	// parallelism, shards and the merge-back triggers.
	shard.Spec
	ColumnCount int          // values in the column (default 100_000)
	Dom         domain.Range // attribute domain (default [0, 999_999])
	NumQueries  int          // queries to run (default 10_000)
	Selectivity float64      // fraction of tuples selected (default 0.1)
	Dist        workload.Kind
	DataSeed    int64
	QuerySeed   int64
	// LowCardinality draws the column from a small set of distinct values
	// (RLE/dictionary-friendly) instead of the paper's 1M-value domain —
	// the data shape of dimension-key and categorical columns.
	LowCardinality int
}

// DefaultConfig returns the §6.1 experimental setup: adaptive
// segmentation under APM 3 KB / 12 KB, uncompressed and unsharded.
func DefaultConfig() Config {
	return Config{
		Spec: shard.Spec{
			Strategy: shard.Segmentation,
			Model:    shard.APM,
			APMMin:   3 * int64(domain.KB),
			APMMax:   12 * int64(domain.KB),
			GDSeed:   3,
			ElemSize: 4,
		},
		ColumnCount: 100_000,
		Dom:         domain.NewRange(0, 999_999),
		NumQueries:  10_000,
		Selectivity: 0.1,
		Dist:        workload.KindUniform,
		DataSeed:    1,
		QuerySeed:   2,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Dom.IsEmpty() {
		c.Dom = d.Dom
	}
	c.ColumnCount = cmp.Or(c.ColumnCount, d.ColumnCount)
	c.ElemSize = cmp.Or(c.ElemSize, d.ElemSize)
	c.NumQueries = cmp.Or(c.NumQueries, d.NumQueries)
	c.Selectivity = cmp.Or(c.Selectivity, d.Selectivity)
	c.APMMin = cmp.Or(c.APMMin, d.APMMin)
	c.APMMax = cmp.Or(c.APMMax, d.APMMax)
	c.GDSeed = cmp.Or(c.GDSeed, d.GDSeed)
	c.DataSeed = cmp.Or(c.DataSeed, d.DataSeed)
	c.QuerySeed = cmp.Or(c.QuerySeed, d.QuerySeed)
	return c
}

// StrategyName is the label used in the paper's figures, e.g. "GD Segm",
// "APM Repl"; compressed runs are suffixed "+C", sharded ones "x<K>sh".
func (c Config) StrategyName() string {
	name := c.Model.String() + " Segm"
	if c.Strategy == shard.Replication {
		name = c.Model.String() + " Repl"
	}
	if c.Compression.Enabled() {
		name += " +C"
	}
	if c.Shards > 1 {
		name += fmt.Sprintf(" x%dsh", c.Shards)
	}
	return name
}

// generateValues draws the run's column data.
func (c Config) generateValues() []domain.Value {
	if c.LowCardinality > 0 {
		return GenerateLowCardColumn(c.ColumnCount, c.Dom, int64(c.LowCardinality), c.DataSeed)
	}
	return GenerateColumn(c.ColumnCount, c.Dom, c.DataSeed)
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
		vals[i] = dom.Lo + uniform(rng, dom)
	}
	return vals
}

// uniform draws an offset into dom uniformly. Extents of 2^63 values or
// more, where Width wraps, draw over the uint64 width (rejecting the
// draws past it); narrower ones keep the Int63n stream.
func uniform(rng *rand.Rand, dom domain.Range) domain.Value {
	if w := dom.Width(); w > 0 {
		return rng.Int63n(w)
	}
	span := uint64(dom.Hi) - uint64(dom.Lo) // width-1, at least 2^63-1
	for {
		if u := rng.Uint64(); u <= span {
			return domain.Value(u)
		}
	}
}

// GenerateLowCardColumn draws count values from card distinct values
// spread evenly over dom — the categorical-column shape of the
// compression experiment.
func GenerateLowCardColumn(count int, dom domain.Range, card int64, seed int64) []domain.Value {
	if card < 1 {
		card = 1
	}
	rng := rand.New(rand.NewSource(seed))
	// step = width/card in uint64, formed from span = width-1 so the
	// full int64 extent (width 2^64) does not wrap.
	span := uint64(dom.Hi) - uint64(dom.Lo)
	step := span / uint64(card)
	if span%uint64(card) == uint64(card)-1 {
		step++
	}
	if step < 1 {
		step = 1
	}
	vals := make([]domain.Value, count)
	for i := range vals {
		vals[i] = dom.Lo + domain.Value(uint64(rng.Int63n(card))*step)
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
	strat, err := shard.Build(cfg.Spec, cfg.Dom, cfg.generateValues(), nil)
	if err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
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
