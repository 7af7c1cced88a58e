// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6), one benchmark per exhibit, at a scaled-down size so
// `go test -bench=.` completes in minutes. The paper-faithful scale runs
// through cmd/sosim and cmd/skybench (see EXPERIMENTS.md for the recorded
// outputs and the paper-vs-measured comparison).
//
// Custom metrics reported alongside ns/op:
//
//	writesKB/query, readsKB/query — the y-axes of Figures 5-7
//	peakExtraStorage              — the Figure 8/9 storage overhead ratio
//	adaptMs, selectMs             — the Figure 10 bars
//	segments                      — Table 2's segment counts
package selforg

import (
	"sync"
	"testing"

	"selforg/internal/bat"
	"selforg/internal/bpm"
	"selforg/internal/core"
	"selforg/internal/domain"
	"selforg/internal/mal"
	"selforg/internal/model"
	"selforg/internal/opt"
	"selforg/internal/sim"
	"selforg/internal/sky"
	"selforg/internal/workload"
)

// benchSimCfg is the §6.1 setup scaled 5x down (20K values over a 200K
// domain, proportional APM bounds).
func benchSimCfg() sim.Config {
	c := sim.DefaultConfig()
	c.ColumnCount = 20_000
	c.Dom = domain.NewRange(0, 199_999)
	c.NumQueries = 400
	c.APMMin = 600
	c.APMMax = 2400
	return c
}

// runFour runs the four strategies and reports per-query write volume.
func runFour(b *testing.B, dist workload.Kind, sel float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		base := benchSimCfg()
		base.Dist = dist
		base.Selectivity = sel
		results := sim.RunAll(sim.FourStrategies(base))
		var writes, reads float64
		for _, r := range results {
			writes += r.Writes.Sum()
			reads += r.Reads.Sum()
		}
		b.ReportMetric(writes/float64(4*base.NumQueries)/1024, "writesKB/query")
		b.ReportMetric(reads/float64(4*base.NumQueries)/1024, "readsKB/query")
	}
}

// BenchmarkFig5UniformSel10 regenerates Figure 5(a): cumulative memory
// writes, uniform distribution, selectivity 0.1.
func BenchmarkFig5UniformSel10(b *testing.B) { runFour(b, workload.KindUniform, 0.1) }

// BenchmarkFig5UniformSel1 regenerates Figure 5(b): selectivity 0.01.
func BenchmarkFig5UniformSel1(b *testing.B) { runFour(b, workload.KindUniform, 0.01) }

// BenchmarkFig6ZipfSel10 regenerates Figure 6(a): Zipf, selectivity 0.1.
func BenchmarkFig6ZipfSel10(b *testing.B) { runFour(b, workload.KindZipf, 0.1) }

// BenchmarkFig6ZipfSel1 regenerates Figure 6(b): Zipf, selectivity 0.01.
func BenchmarkFig6ZipfSel1(b *testing.B) { runFour(b, workload.KindZipf, 0.01) }

// BenchmarkFig7Reads regenerates Figure 7: per-query memory reads over the
// first 1000 queries, uniform, selectivity 0.1 (scaled to 400).
func BenchmarkFig7Reads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := benchSimCfg()
		series := sim.ReadsPerQuery(workload.KindUniform, 0.1, base.NumQueries)
		var tail float64
		for _, s := range series {
			tail += s.Tail(50)
		}
		b.ReportMetric(tail/4/1024, "tailReadsKB/query")
	}
}

// BenchmarkTable1AvgReads regenerates Table 1: average read sizes across
// the 4 strategies x 4 workloads grid.
func BenchmarkTable1AvgReads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := benchSimCfg()
		base.NumQueries = 200 // 16 runs per iteration
		tb := sim.Table1(base.NumQueries)
		if tb.NumRows() != 4 {
			b.Fatal("table shape wrong")
		}
	}
}

// BenchmarkFig8ReplicaStorage regenerates Figure 8: replica storage under
// uniform load, reporting the peak extra-storage ratio (§6.1.3 reports
// ~1.5x extra at the paper's scale).
func BenchmarkFig8ReplicaStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := benchSimCfg()
		base.Strategy = Replication
		base.Model = APM
		r := sim.Run(base)
		b.ReportMetric(sim.PeakExtraStorageRatio(r.Storage, r.ColumnBytes), "peakExtraStorage")
	}
}

// BenchmarkFig9ReplicaStorage regenerates Figure 9: replica storage under
// Zipf load.
func BenchmarkFig9ReplicaStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := benchSimCfg()
		base.Strategy = Replication
		base.Model = GD
		base.Dist = workload.KindZipf
		r := sim.Run(base)
		b.ReportMetric(sim.PeakExtraStorageRatio(r.Storage, r.ColumnBytes), "peakExtraStorage")
	}
}

// --- §6.2 prototype benches ---

// benchSkyCfg is the §6.2 setup scaled ~100x down.
func benchSkyCfg() sky.Config {
	c := sky.DefaultConfig()
	c.NumValues = 400_000
	c.Pool = bpm.Config{
		BudgetBytes:        1 << 20,
		MemBandwidth:       2e9,
		DiskReadBandwidth:  300e6,
		DiskWriteBandwidth: 250e6,
	}
	c.Mmin = 16 << 10
	c.MmaxSmall = 80 << 10
	c.MmaxLarge = 400 << 10
	c.Workload.NumQueries = 100
	c.MovingAvgWindow = 10
	return c
}

var (
	benchDSOnce sync.Once
	benchDS     *sky.Dataset
)

func benchDataset() *sky.Dataset {
	benchDSOnce.Do(func() {
		benchDS = sky.Generate(benchSkyCfg().NumValues, 5)
	})
	return benchDS
}

// BenchmarkFig10AdaptVsSelect regenerates Figure 10: average adaptation vs
// selection time per scheme, all three workloads.
func BenchmarkFig10AdaptVsSelect(b *testing.B) {
	ds := benchDataset()
	cfg := benchSkyCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := sky.RunWorkload(ds, sky.Random, cfg)
		for _, r := range results {
			if r.Scheme == "APM 1-25" {
				b.ReportMetric(r.AdaptationMs.Mean(), "adaptMs")
				b.ReportMetric(r.SelectionMs.Mean(), "selectMs")
			}
		}
	}
}

// benchWorkloadTimes drives one workload through all schemes and reports
// the adaptive-vs-baseline total-time ratio.
func benchWorkloadTimes(b *testing.B, name sky.WorkloadName, movingAvg bool) {
	b.Helper()
	ds := benchDataset()
	cfg := benchSkyCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var series = sky.CumulativeTimes(ds, name, cfg)
		if movingAvg {
			series = sky.MovingAvgTimes(ds, name, cfg)
		}
		var base, apm float64
		for _, s := range series {
			switch s.Name {
			case "NoSegm":
				base = s.At(s.Len() - 1)
			case "APM 1-25":
				apm = s.At(s.Len() - 1)
			}
		}
		if base > 0 {
			b.ReportMetric(apm/base, "adaptive/baseline")
		}
	}
}

// BenchmarkFig11CumulativeRandom regenerates Figure 11.
func BenchmarkFig11CumulativeRandom(b *testing.B) { benchWorkloadTimes(b, sky.Random, false) }

// BenchmarkFig12MovingAvgRandom regenerates Figure 12.
func BenchmarkFig12MovingAvgRandom(b *testing.B) { benchWorkloadTimes(b, sky.Random, true) }

// BenchmarkFig13CumulativeSkewed regenerates Figure 13.
func BenchmarkFig13CumulativeSkewed(b *testing.B) { benchWorkloadTimes(b, sky.Skewed, false) }

// BenchmarkFig14MovingAvgSkewed regenerates Figure 14.
func BenchmarkFig14MovingAvgSkewed(b *testing.B) { benchWorkloadTimes(b, sky.Skewed, true) }

// BenchmarkFig15CumulativeChanging regenerates Figure 15.
func BenchmarkFig15CumulativeChanging(b *testing.B) { benchWorkloadTimes(b, sky.Changing, false) }

// BenchmarkFig16MovingAvgChanging regenerates Figure 16.
func BenchmarkFig16MovingAvgChanging(b *testing.B) { benchWorkloadTimes(b, sky.Changing, true) }

// BenchmarkTable2SegmentStats regenerates Table 2: segment count / size /
// deviation per load and scheme.
func BenchmarkTable2SegmentStats(b *testing.B) {
	ds := benchDataset()
	cfg := benchSkyCfg()
	cfg.Workload.NumQueries = 60
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := sky.Table2(ds, cfg)
		if tb.NumRows() != 9 {
			b.Fatal("table shape wrong")
		}
	}
}

// --- ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationModels compares the write volume of Always (cracking
// without a model guard), GD and APM under the same workload — the reason
// the paper introduces segmentation models at all (§3.2: "avoid creating
// too many small segments").
func BenchmarkAblationModels(b *testing.B) {
	mods := map[string]func() model.Model{
		"always": func() model.Model { return model.Always{} },
		"gd":     func() model.Model { return model.NewGaussianDice(3) },
		"apm":    func() model.Model { return model.NewAPM(600, 2400) },
	}
	for name, mk := range mods {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchSimCfg()
				// Drive the core directly: the ablation needs the Always
				// model, which the facade intentionally does not expose.
				vals := sim.GenerateColumn(cfg.ColumnCount, cfg.Dom, 1)
				s := core.NewSegmenter(cfg.Dom, vals, cfg.ElemSize, mk(), nil)
				gen := workload.NewUniform(cfg.Dom, 20_000, 2)
				var writes int64
				for q := 0; q < cfg.NumQueries; q++ {
					qq := gen.Next()
					_, st := s.Select(qq.Range())
					writes += st.WriteBytes
				}
				b.ReportMetric(float64(writes)/float64(cfg.NumQueries)/1024, "writesKB/query")
				b.ReportMetric(float64(s.SegmentCount()), "segments")
			}
		})
	}
}

// BenchmarkAblationGlueSmall measures the §8 merging extension: GD
// fragmentation on a skewed load with and without periodic gluing.
func BenchmarkAblationGlueSmall(b *testing.B) {
	for _, glue := range []bool{false, true} {
		name := "noglue"
		if glue {
			name = "glue"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchSimCfg()
				vals := sim.GenerateColumn(cfg.ColumnCount, cfg.Dom, 1)
				col, err := New(Interval{cfg.Dom.Lo, cfg.Dom.Hi}, vals, Options{
					Strategy: Segmentation, Model: GD, GDSeed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				spot := workload.HotSpot{Area: domain.NewRange(50_000, 60_000), Weight: 1}
				gen := workload.NewSkewed(cfg.Dom, 500, []workload.HotSpot{spot}, 3)
				for q := 0; q < cfg.NumQueries; q++ {
					qq := gen.Next()
					col.Select(qq.Lo, qq.Hi)
					if glue && q%50 == 49 {
						col.GlueSmall(cfg.APMMin)
					}
				}
				b.ReportMetric(float64(col.SegmentCount()), "segments")
				b.ReportMetric(float64(col.Totals().ReadBytes)/float64(cfg.NumQueries)/1024, "readsKB/query")
			}
		})
	}
}

// BenchmarkAblationUnrolledVsIterator compares the two §3.1 replacement
// strategies of the segment optimizer on the same plan and data.
func BenchmarkAblationUnrolledVsIterator(b *testing.B) {
	const plan = `
function user.q():void;
X1:bat[:oid,:dbl] := sql.bind("sys","P","ra",0);
X14 := algebra.uselect(X1,100.0,120.0,true,true);
C := aggr.count(X14);
io.print(C);
end q;
`
	build := func() (*mal.MemCatalog, *bpm.Store) {
		n := 40_000
		ras := make([]float64, n)
		for i := range ras {
			ras[i] = float64(i%3600) / 10
		}
		cat := mal.NewMemCatalog()
		cat.AddTable(&mal.Table{
			Schema: "sys", Name: "P",
			Cols: map[string]*mal.Column{
				"ra": {Base: bat.New(bat.NewDenseOids(0, n), bat.NewDbls(ras)), Segmented: "sys_P_ra"},
			},
		})
		st := bpm.NewStore()
		sb := bpm.NewSegmentedBAT("sys_P_ra",
			bat.New(bat.NewDenseOids(0, n), bat.NewDbls(append([]float64(nil), ras...))), 0, 360, 4)
		// Pre-split into 36 segments of 10 degrees.
		for lo := 10.0; lo < 360; lo += 10 {
			sb.Adapt(lo, lo, model.Always{})
		}
		st.Register(sb)
		return cat, st
	}
	for _, unroll := range []int{0, 8} {
		name := "iterator"
		if unroll > 0 {
			name = "unrolled"
		}
		b.Run(name, func(b *testing.B) {
			cat, st := build()
			prog := mal.MustParse(plan)
			if err := opt.Default().Optimize(prog, &opt.Context{Catalog: cat, Store: st, UnrollThreshold: unroll}); err != nil {
				b.Fatal(err)
			}
			in := mal.NewInterp(cat, st)
			in.AdaptModel = model.Never{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx, err := in.Run(prog)
				if err != nil {
					b.Fatal(err)
				}
				if c, _ := ctx.Get("C"); c.(int64) == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// BenchmarkAblationPointQueries measures the §3.2.1 design goal "reduce
// the impact of point queries on the segments structure": a width-1 query
// stream must not shatter the column under GD or APM, unlike Always.
func BenchmarkAblationPointQueries(b *testing.B) {
	mods := map[string]func() model.Model{
		"always": func() model.Model { return model.Always{} },
		"gd":     func() model.Model { return model.NewGaussianDice(3) },
		"apm":    func() model.Model { return model.NewAPM(600, 2400) },
	}
	for name, mk := range mods {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchSimCfg()
				vals := sim.GenerateColumn(cfg.ColumnCount, cfg.Dom, 1)
				s := core.NewSegmenter(cfg.Dom, vals, cfg.ElemSize, mk(), nil)
				gen := workload.NewUniform(cfg.Dom, 1, 2) // point queries
				for q := 0; q < cfg.NumQueries; q++ {
					qq := gen.Next()
					s.Select(qq.Range())
				}
				b.ReportMetric(float64(s.SegmentCount()), "segments")
			}
		})
	}
}

// BenchmarkAblationTupleReconstruction quantifies the §1 pitfall of the
// value-based organization: tuple reconstruction (oid → value) costs a
// segment search instead of a positional index access.
func BenchmarkAblationTupleReconstruction(b *testing.B) {
	n := 1 << 18
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i%36000) / 100
	}
	positional := bat.NewDense(bat.NewDbls(vals))
	sb := bpm.NewSegmentedBAT("c", bat.NewDense(bat.NewDbls(append([]float64(nil), vals...))), 0, 360, 4)
	for lo := 10.0; lo < 360; lo += 10 {
		sb.Adapt(lo, lo, model.Always{}) // 36 segments
	}
	oids := make([]uint64, 512)
	for i := range oids {
		oids[i] = uint64((i * 97) % n)
	}
	b.Run("positional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if out := bpm.LookupOidsPositional(positional, oids); out.Len() != len(oids) {
				b.Fatal("lookup lost rows")
			}
		}
	})
	b.Run("value-based", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if out := sb.LookupOids(oids); out.Len() != len(oids) {
				b.Fatal("lookup lost rows")
			}
		}
	})
}

// BenchmarkAblationBulkLoad measures the §7 bulk-load path against both
// strategies: replication pays per-copy, segmentation per-segment.
func BenchmarkAblationBulkLoad(b *testing.B) {
	for _, strat := range []Strategy{Segmentation, Replication} {
		b.Run(strat.String(), func(b *testing.B) {
			cfg := benchSimCfg()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				vals := sim.GenerateColumn(cfg.ColumnCount, cfg.Dom, 1)
				col, err := New(Interval{cfg.Dom.Lo, cfg.Dom.Hi}, vals, Options{
					Strategy: strat, Model: APM, APMMin: cfg.APMMin, APMMax: cfg.APMMax,
				})
				if err != nil {
					b.Fatal(err)
				}
				gen := workload.NewUniform(cfg.Dom, 20_000, 2)
				for q := 0; q < 100; q++ {
					qq := gen.Next()
					col.Select(qq.Lo, qq.Hi)
				}
				batch := sim.GenerateColumn(2000, cfg.Dom, 9)
				b.StartTimer()
				if _, err := col.BulkLoad(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStrategies compares adaptive segmentation and
// replication end to end on the same workload (writes and reads per
// query) — the paper's central trade-off.
func BenchmarkAblationStrategies(b *testing.B) {
	for _, strat := range []Strategy{Segmentation, Replication} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchSimCfg()
				vals := sim.GenerateColumn(cfg.ColumnCount, cfg.Dom, 1)
				col, err := New(Interval{cfg.Dom.Lo, cfg.Dom.Hi}, vals, Options{
					Strategy: strat, Model: APM, APMMin: cfg.APMMin, APMMax: cfg.APMMax,
				})
				if err != nil {
					b.Fatal(err)
				}
				gen := workload.NewUniform(cfg.Dom, 20_000, 2)
				for q := 0; q < cfg.NumQueries; q++ {
					qq := gen.Next()
					col.Select(qq.Lo, qq.Hi)
				}
				t := col.Totals()
				b.ReportMetric(float64(t.WriteBytes)/float64(cfg.NumQueries)/1024, "writesKB/query")
				b.ReportMetric(float64(col.StorageBytes())/1024, "storageKB")
			}
		})
	}
}

// BenchmarkAblationCompression compares the adaptive compression modes
// end to end on low-cardinality data (the shape of dimension and
// categorical columns): same queries, same splits, only the physical
// layout differs. Metrics: per-query read volume, final physical
// storage, and the compression ratio. ns/op here includes the one-time
// convergence cost (splitting plus advisor encoding); steady-state scan
// latency is measured by BenchmarkAblationCompressedScan below.
func BenchmarkAblationCompression(b *testing.B) {
	modes := []struct {
		name string
		c    Compression
	}{
		{"off", CompressionOff},
		{"plain", CompressionPlain},
		{"auto", CompressionAuto},
		{"rle", CompressionRLE},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchSimCfg()
				vals := sim.GenerateLowCardColumn(cfg.ColumnCount, cfg.Dom, 64, 1)
				col, err := New(Interval{cfg.Dom.Lo, cfg.Dom.Hi}, vals, Options{
					Model: APM, APMMin: cfg.APMMin, APMMax: cfg.APMMax, Compression: m.c,
				})
				if err != nil {
					b.Fatal(err)
				}
				gen := workload.NewUniform(cfg.Dom, 20_000, 2)
				for q := 0; q < cfg.NumQueries; q++ {
					qq := gen.Next()
					col.Select(qq.Lo, qq.Hi)
				}
				t := col.Totals()
				b.ReportMetric(float64(t.ReadBytes)/float64(cfg.NumQueries)/1024, "readsKB/query")
				b.ReportMetric(float64(col.StorageBytes())/1024, "storageKB")
				b.ReportMetric(col.CompressionRatio(), "ratio")
			}
		})
	}
}

// BenchmarkAblationCompressedCount isolates the counting fast path: RLE
// answers cardinality queries from run headers, so Count over a
// compressed column does no per-row work at all.
func BenchmarkAblationCompressedCount(b *testing.B) {
	for _, m := range []struct {
		name string
		c    Compression
	}{{"off", CompressionOff}, {"auto", CompressionAuto}} {
		b.Run(m.name, func(b *testing.B) {
			// Converge the layout first, then measure pure counting.
			col := compressedScanColumn(b, m.c)
			gen := workload.NewUniform(benchSimCfg().Dom, 20_000, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qq := gen.Next()
				col.Count(qq.Lo, qq.Hi)
			}
		})
	}
}

// compressedScanColumn builds a converged low-cardinality column under
// the given compression mode: the adaptive phase runs outside the timer,
// so callers measure pure scan cost.
func compressedScanColumn(b *testing.B, c Compression) *Column {
	b.Helper()
	cfg := benchSimCfg()
	vals := sim.GenerateLowCardColumn(cfg.ColumnCount, cfg.Dom, 64, 1)
	col, err := New(Interval{cfg.Dom.Lo, cfg.Dom.Hi}, vals, Options{
		Model: APM, APMMin: cfg.APMMin, APMMax: cfg.APMMax, Compression: c,
	})
	if err != nil {
		b.Fatal(err)
	}
	warm := workload.NewUniform(cfg.Dom, 20_000, 2)
	for q := 0; q < cfg.NumQueries; q++ {
		qq := warm.Next()
		col.Select(qq.Lo, qq.Hi)
	}
	return col
}

// BenchmarkAblationCompressedScan measures steady-state range selections
// over a converged layout, plain versus compressed — the acceptance
// check that compressed scans are no slower on RLE-friendly data (run
// skipping makes them faster while reading a fraction of the bytes).
func BenchmarkAblationCompressedScan(b *testing.B) {
	for _, m := range []struct {
		name string
		c    Compression
	}{{"off", CompressionOff}, {"auto", CompressionAuto}, {"rle", CompressionRLE}} {
		b.Run(m.name, func(b *testing.B) {
			col := compressedScanColumn(b, m.c)
			cfg := benchSimCfg()
			gen := workload.NewUniform(cfg.Dom, 20_000, 3)
			b.ResetTimer()
			var reads int64
			for i := 0; i < b.N; i++ {
				qq := gen.Next()
				_, st := col.Select(qq.Lo, qq.Hi)
				reads += st.ReadBytes
			}
			b.ReportMetric(float64(reads)/float64(b.N)/1024, "readsKB/query")
		})
	}
}
