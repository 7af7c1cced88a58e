package sim

import (
	"fmt"
	"strings"

	"selforg/internal/compress"
	"selforg/internal/domain"
	"selforg/internal/model"
	"selforg/internal/shard"
	"selforg/internal/stats"
	"selforg/internal/workload"
)

// FourStrategies returns the four strategy/model combinations plotted in
// Figures 5–7: GD Segm, GD Repl, APM Segm, APM Repl.
func FourStrategies(base Config) []Config {
	out := make([]Config, 0, 4)
	for _, m := range []shard.Model{shard.GD, shard.APM} {
		for _, s := range segmRepl {
			c := base
			c.Model = m
			c.Strategy = s
			out = append(out, c)
		}
	}
	return out
}

// RunAll executes every config and returns the results in order.
func RunAll(cfgs []Config) []*Result {
	out := make([]*Result, len(cfgs))
	for i, c := range cfgs {
		out[i] = Run(c)
	}
	return out
}

// CumulativeWrites runs the four strategies for the given distribution and
// selectivity and returns the cumulative write series — one panel of
// Figure 5 (uniform) or Figure 6 (Zipf).
func CumulativeWrites(dist workload.Kind, selectivity float64, numQueries int) []*stats.Series {
	base := DefaultConfig()
	base.Dist = dist
	base.Selectivity = selectivity
	if numQueries > 0 {
		base.NumQueries = numQueries
	}
	results := RunAll(FourStrategies(base))
	out := make([]*stats.Series, len(results))
	for i, r := range results {
		c := r.Writes.Cumulative()
		c.Name = r.Cfg.StrategyName()
		out[i] = c
	}
	return out
}

// ReadsPerQuery runs the four strategies (uniform, selectivity 0.1 by
// default in the paper) and returns the raw per-query read series for the
// first numQueries queries — the four panels of Figure 7.
func ReadsPerQuery(dist workload.Kind, selectivity float64, numQueries int) []*stats.Series {
	base := DefaultConfig()
	base.Dist = dist
	base.Selectivity = selectivity
	base.NumQueries = numQueries
	results := RunAll(FourStrategies(base))
	out := make([]*stats.Series, len(results))
	for i, r := range results {
		s := r.Reads
		s.Name = r.Cfg.StrategyName()
		out[i] = s
	}
	return out
}

// Table1Workloads are the four workload columns of Table 1.
var Table1Workloads = []struct {
	Label       string
	Dist        workload.Kind
	Selectivity float64
}{
	{"U 0.1", workload.KindUniform, 0.1},
	{"U 0.01", workload.KindUniform, 0.01},
	{"Z 0.1", workload.KindZipf, 0.1},
	{"Z 0.01", workload.KindZipf, 0.01},
}

// Table1 reproduces "Table 1: Average read sizes in KB for 10K queries":
// rows are the four strategies, columns the four workloads.
func Table1(numQueries int) *stats.Table {
	base := DefaultConfig()
	if numQueries > 0 {
		base.NumQueries = numQueries
	}
	cols := []string{"Strategy"}
	for _, w := range Table1Workloads {
		cols = append(cols, w.Label)
	}
	tb := stats.NewTable("Table 1: Average read sizes in KB", cols...)
	for _, sc := range FourStrategies(base) {
		cells := []string{sc.StrategyName()}
		for _, w := range Table1Workloads {
			c := sc
			c.Dist = w.Dist
			c.Selectivity = w.Selectivity
			r := Run(c)
			cells = append(cells, fmt.Sprintf("%.1f", r.AvgReadKB()))
		}
		tb.AddRow(cells...)
	}
	return tb
}

// ReplicaStorage runs the two replication strategies (GD Repl, APM Repl)
// and returns the per-query storage series plus the constant DB-size
// reference line — one panel of Figure 8 (uniform) or Figure 9 (Zipf).
func ReplicaStorage(dist workload.Kind, selectivity float64, numQueries int) []*stats.Series {
	base := DefaultConfig()
	base.Dist = dist
	base.Selectivity = selectivity
	if numQueries > 0 {
		base.NumQueries = numQueries
	}
	base.Strategy = shard.Replication
	var out []*stats.Series
	dbSize := stats.NewSeries("DB size")
	for _, m := range []shard.Model{shard.GD, shard.APM} {
		c := base
		c.Model = m
		r := Run(c)
		s := r.Storage
		s.Name = r.Cfg.StrategyName()
		out = append(out, s)
		if dbSize.Len() == 0 {
			for i := 0; i < s.Len(); i++ {
				dbSize.Append(float64(r.ColumnBytes))
			}
		}
	}
	return append(out, dbSize)
}

// SaturationPoint returns the 1-based index of the last query that caused
// any write, or 0 if none did — the §6.1.1 saturation measure ("the APM
// model stops reorganizing the column after an initial number of
// queries").
func SaturationPoint(writes *stats.Series) int {
	last := 0
	for i := 0; i < writes.Len(); i++ {
		if writes.At(i) > 0 {
			last = i + 1
		}
	}
	return last
}

// Chart renders series as one ASCII panel in the style of the paper's
// figures.
func Chart(title, xLabel, yLabel string, logX, logY bool, series []*stats.Series) string {
	ch := &stats.Chart{
		Title:  title,
		XLabel: xLabel,
		YLabel: yLabel,
		Width:  76,
		Height: 22,
		LogX:   logX,
		LogY:   logY,
	}
	for _, s := range series {
		ch.AddSeriesFrom(s)
	}
	return ch.Render()
}

// PeakExtraStorageRatio returns max(storage)/columnBytes - 1, the "extra
// storage of about 1.5 times the column size" measure of §6.1.3.
func PeakExtraStorageRatio(storage *stats.Series, columnBytes int64) float64 {
	if columnBytes == 0 {
		return 0
	}
	return storage.Max()/float64(columnBytes) - 1
}

// Below is the experiment registry consumed by cmd/sosim; each entry knows
// how to render itself as text.

// Experiment is a runnable, named §6.1 experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(scale Scale) string
}

// Scale shrinks experiments for quick runs: Queries caps the query count
// (0 = paper-faithful).
type Scale struct {
	Queries int
}

func (s Scale) queries(paper int) int {
	if s.Queries > 0 && s.Queries < paper {
		return s.Queries
	}
	return paper
}

// Experiments lists every §6.1 table and figure.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "fig2", Title: "Figure 2: Gaussian Dice decision function O(x)", Run: runFig2},
		{ID: "fig5", Title: "Figure 5: cumulative memory writes, uniform", Run: runFig5},
		{ID: "fig6", Title: "Figure 6: cumulative memory writes, Zipf", Run: runFig6},
		{ID: "fig7", Title: "Figure 7: memory reads, first 1000 queries, uniform 0.1", Run: runFig7},
		{ID: "table1", Title: "Table 1: average read sizes (KB) over 10K queries", Run: runTable1},
		{ID: "fig8", Title: "Figure 8: replica storage, uniform", Run: runFig8},
		{ID: "fig9", Title: "Figure 9: replica storage, Zipf", Run: runFig9},
		{ID: "compress", Title: "Extension: adaptive per-segment compression vs plain storage", Run: runCompress},
		{ID: "concurrent", Title: "Extension: N concurrent query streams over one shared column", Run: concurrentTable.run},
		{ID: "replicated-concurrent", Title: "Extension: lock-free concurrent scans on a converged replicated column", Run: replicatedConcurrentTable.run},
		{ID: "mixed", Title: "Extension: mixed read-write streams through the MVCC delta store", Run: mixedTable.run},
		{ID: "sharded", Title: "Extension: domain-sharded column, concurrent read scaling", Run: shardedTable.run},
		{ID: "sharded-mixed", Title: "Extension: domain-sharded column, mixed read-write writer scaling", Run: shardedMixedTable.run},
		{ID: "report", Title: "Numeric digest of every §6.1 exhibit (for EXPERIMENTS.md)", Run: runReport},
	}
}

// compressDatasets are the two data shapes of the compression experiment:
// the paper's uniform 1M-value domain (frame-of-reference territory) and
// a 64-value categorical column (run-length/dictionary territory).
var compressDatasets = []struct {
	Label string
	Card  int
}{
	{"uniform-1M", 0},
	{"categorical-64", 64},
}

// runCompress is the compression extension experiment: the APM strategies
// with the advisor on versus the plain layout, over both data shapes. It
// reports read/write volumes, the final physical footprint and the
// compression ratio — the sim-side evidence behind the subsystem.
func runCompress(scale Scale) string {
	n := scale.queries(2000)
	var b strings.Builder
	tb := stats.NewTable("Adaptive compression vs plain storage (APM, uniform queries, sel 0.1)",
		"Data", "Strategy", "Reads KB/q", "Writes KB total", "Storage KB", "Logical KB", "Ratio", "Recodes", "Encodings")
	for _, ds := range compressDatasets {
		for _, strat := range segmRepl {
			for _, mode := range []compress.Mode{compress.Off, compress.Auto} {
				c := DefaultConfig()
				c.NumQueries = n
				c.Strategy = strat
				c.Compression = mode
				c.LowCardinality = ds.Card
				r := Run(c)
				logical := r.Logical.At(r.Logical.Len() - 1)
				phys := r.Compressed.At(r.Compressed.Len() - 1)
				ratio := 1.0
				if phys > 0 {
					ratio = logical / phys
				}
				tb.AddRow(ds.Label, r.Cfg.StrategyName(),
					fmt.Sprintf("%.1f", r.AvgReadKB()),
					fmt.Sprintf("%.0f", r.Writes.Sum()/1024),
					fmt.Sprintf("%.0f", phys/1024),
					fmt.Sprintf("%.0f", logical/1024),
					fmt.Sprintf("%.2fx", ratio),
					fmt.Sprint(r.Recodes),
					r.FinalEncodings.String())
			}
		}
	}
	b.WriteString(tb.Render())
	return b.String()
}

// CompressedStorage runs one strategy with and without compression and
// returns the per-query physical-storage series plus the logical
// reference — the TSV export of the compression experiment.
func CompressedStorage(strat shard.Strategy, lowCard int, numQueries int) []*stats.Series {
	out := make([]*stats.Series, 0, 3)
	for _, mode := range []compress.Mode{compress.Off, compress.Auto} {
		c := DefaultConfig()
		c.Strategy = strat
		c.Compression = mode
		c.LowCardinality = lowCard
		if numQueries > 0 {
			c.NumQueries = numQueries
		}
		r := Run(c)
		s := r.Compressed
		s.Name = r.Cfg.StrategyName()
		out = append(out, s)
		if mode == compress.Auto {
			l := r.Logical
			l.Name = r.Cfg.StrategyName() + " logical"
			out = append(out, l)
		}
	}
	return out
}

// EncodingTable tabulates the per-encoding storage breakdown (segment
// counts and physical bytes per encoding) after a compressed run of
// every strategy over both data shapes — the PR-1 follow-up counters,
// exported by cmd/sosim as encodings.tsv.
func EncodingTable(numQueries int) *stats.Table {
	tb := stats.NewTable("Per-encoding storage breakdown after adaptive-compression runs",
		"Data", "Strategy", "Encoding", "Segments", "Bytes")
	for _, ds := range compressDatasets {
		for _, strat := range segmRepl {
			c := DefaultConfig()
			if numQueries > 0 {
				c.NumQueries = numQueries
			}
			c.Strategy = strat
			c.Compression = compress.Auto
			c.LowCardinality = ds.Card
			r := Run(c)
			for _, e := range compress.Encodings {
				tb.AddRow(ds.Label, r.Cfg.StrategyName(), e.String(),
					fmt.Sprint(r.FinalEncodings.Segments[e]),
					fmt.Sprint(r.FinalEncodings.Bytes[e]))
			}
		}
	}
	return tb
}

// runReport condenses every simulation exhibit into the numbers the paper
// reports in prose: total/ratio write volumes, saturation points, read
// convergence, storage peaks and drop dynamics.
func runReport(scale Scale) string {
	var b strings.Builder
	n10k := scale.queries(10_000)

	for _, d := range []struct {
		label string
		kind  workload.Kind
	}{{"uniform", workload.KindUniform}, {"zipf", workload.KindZipf}} {
		for _, sel := range []float64{0.1, 0.01} {
			base := DefaultConfig()
			base.Dist = d.kind
			base.Selectivity = sel
			base.NumQueries = n10k
			results := RunAll(FourStrategies(base))
			byName := map[string]*Result{}
			for _, r := range results {
				byName[r.Cfg.StrategyName()] = r
			}
			fmt.Fprintf(&b, "[fig5/6] %s sel %g (n=%d):\n", d.label, sel, n10k)
			for _, name := range []string{"GD Segm", "GD Repl", "APM Segm", "APM Repl"} {
				r := byName[name]
				fmt.Fprintf(&b, "  %-9s total writes %8.0f KB, saturation at query %5d, avg reads %6.1f KB\n",
					name, r.Writes.Sum()/1024, SaturationPoint(r.Writes), r.AvgReadKB())
			}
			segW, repW := byName["APM Segm"].Writes.Sum(), byName["APM Repl"].Writes.Sum()
			if repW > 0 {
				fmt.Fprintf(&b, "  APM Segm/Repl write ratio: %.2fx (paper: ~2.5x)\n", segW/repW)
			}
			if byName["APM Repl"].Storage != nil {
				r := byName["APM Repl"]
				fmt.Fprintf(&b, "  APM Repl storage peak %.0f KB (column %d KB), extra %.2fx, drops %d\n",
					r.Storage.Max()/1024, r.ColumnBytes/1024,
					PeakExtraStorageRatio(r.Storage, r.ColumnBytes), r.Drops)
				g := byName["GD Repl"]
				fmt.Fprintf(&b, "  GD  Repl storage peak %.0f KB, extra %.2fx, drops %d\n",
					g.Storage.Max()/1024, PeakExtraStorageRatio(g.Storage, g.ColumnBytes), g.Drops)
			}
			b.WriteString("\n")
		}
	}

	// Figure 7 digest: early spikes and converged tail per strategy.
	series := ReadsPerQuery(workload.KindUniform, 0.1, scale.queries(1000))
	fmt.Fprintf(&b, "[fig7] uniform sel 0.1, first %d queries:\n", scale.queries(1000))
	for _, s := range series {
		spikes := 0
		colBytes := float64(DefaultConfig().ColumnCount) * 4
		for i := 1; i < s.Len(); i++ {
			if s.At(i) >= colBytes {
				spikes++
			}
		}
		fmt.Fprintf(&b, "  %-9s first %8.0f B, tail(100) %8.0f B, full-scan spikes after q1: %d\n",
			s.Name, s.At(0), s.Tail(100), spikes)
	}
	return b.String()
}

// runFig2 renders the §3.2.1 decision function O(x) = G(x)/G(0.5) for a
// few sigma = SizeS/TotSize values (the shape shown in Figure 2).
func runFig2(Scale) string {
	ch := &stats.Chart{
		Title:  "Gaussian Dice: split probability O(x) vs partition ratio x",
		XLabel: "partition ratio x = SizeP/SizeS",
		YLabel: "O(x)",
		Width:  72, Height: 20,
	}
	for _, sigma := range []float64{0.1, 0.25, 0.5, 1.0} {
		pts := make([]stats.Point, 0, 101)
		for i := 0; i <= 100; i++ {
			x := float64(i) / 100
			pts = append(pts, stats.Point{X: x, Y: model.Odds(x, sigma)})
		}
		ch.AddSeries(fmt.Sprintf("sigma=%.2f", sigma), pts)
	}
	return ch.Render()
}

func runWritesFigure(title string, dist workload.Kind, scale Scale) string {
	out := ""
	for _, sel := range []float64{0.1, 0.01} {
		series := CumulativeWrites(dist, sel, scale.queries(10_000))
		out += Chart(fmt.Sprintf("%s, selectivity %g", title, sel),
			"queries", "memory writes (bytes)", true, true, series)
		out += "\n"
	}
	return out
}

func runFig5(scale Scale) string {
	return runWritesFigure("Cumulative memory writes, uniform", workload.KindUniform, scale)
}

func runFig6(scale Scale) string {
	return runWritesFigure("Cumulative memory writes, Zipf", workload.KindZipf, scale)
}

func runFig7(scale Scale) string {
	series := ReadsPerQuery(workload.KindUniform, 0.1, scale.queries(1000))
	out := ""
	for _, s := range series {
		out += Chart(fmt.Sprintf("Memory reads per query — %s", s.Name),
			"queries", "reads (bytes)", false, true, []*stats.Series{s})
		out += "\n"
	}
	return out
}

func runTable1(scale Scale) string {
	return Table1(scale.queries(10_000)).Render()
}

func runFig8(scale Scale) string {
	out := ""
	for _, sel := range []float64{0.1, 0.01} {
		series := ReplicaStorage(workload.KindUniform, sel, scale.queries(500))
		out += Chart(fmt.Sprintf("Replica storage, uniform, selectivity %g", sel),
			"queries", "storage (bytes)", false, false, series)
		out += "\n"
	}
	return out
}

func runFig9(scale Scale) string {
	out := ""
	for _, sel := range []float64{0.1, 0.01} {
		series := ReplicaStorage(workload.KindZipf, sel, scale.queries(10_000))
		out += Chart(fmt.Sprintf("Replica storage, Zipf, selectivity %g", sel),
			"queries", "storage (bytes)", false, false, series)
		out += "\n"
	}
	return out
}

// ColumnBytesDefault is the DB size of the default setup (400 KB).
func ColumnBytesDefault() domain.ByteSize {
	c := DefaultConfig()
	return domain.ByteSize(int64(c.ColumnCount) * c.ElemSize)
}
