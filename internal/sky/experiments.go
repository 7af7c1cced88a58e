package sky

import (
	"fmt"
	"strings"
	"time"

	"selforg/internal/stats"
)

// Fig10 reproduces "Figure 10: Times for adaptation and selection" — the
// average per-query adaptation and selection time for every scheme and
// workload after the full query stream.
func Fig10(ds *Dataset, cfg Config) *stats.Table {
	tb := stats.NewTable(
		"Figure 10: average per-query time (ms) spent in adaptation vs selection",
		"Workload", "Scheme", "Adaptation", "Selection", "Total")
	for _, w := range WorkloadNames() {
		for _, r := range RunWorkload(ds, w, cfg) {
			tb.AddRow(string(w), r.Scheme,
				fmt.Sprintf("%.1f", r.AdaptationMs.Mean()),
				fmt.Sprintf("%.1f", r.SelectionMs.Mean()),
				fmt.Sprintf("%.1f", r.TotalMs.Mean()))
		}
	}
	return tb
}

// CumulativeTimes returns per-scheme cumulative total-time series for one
// workload — Figures 11 (random), 13 (skewed) and 15 (changing).
func CumulativeTimes(ds *Dataset, name WorkloadName, cfg Config) []*stats.Series {
	results := RunWorkload(ds, name, cfg)
	out := make([]*stats.Series, len(results))
	for i, r := range results {
		c := r.TotalMs.Cumulative()
		c.Name = r.Scheme
		out[i] = c
	}
	return out
}

// MovingAvgTimes returns per-scheme moving-average total-time series for
// one workload — Figures 12 (random), 14 (skewed) and 16 (changing).
func MovingAvgTimes(ds *Dataset, name WorkloadName, cfg Config) []*stats.Series {
	results := RunWorkload(ds, name, cfg)
	out := make([]*stats.Series, len(results))
	w := cfg.MovingAvgWindow
	if w < 1 {
		w = 20
	}
	for i, r := range results {
		m := r.TotalMs.MovingAverage(w)
		m.Name = r.Scheme
		out[i] = m
	}
	return out
}

// Table2 reproduces "Table 2: Segments statistics": segment count, average
// size and deviation (MB) per workload for the adaptive schemes.
func Table2(ds *Dataset, cfg Config) *stats.Table {
	tb := stats.NewTable("Table 2: Segments statistics",
		"Load", "Scheme", "Segm.#", "Avg size (MB)", "Deviation")
	for _, w := range WorkloadNames() {
		for _, r := range RunWorkload(ds, w, cfg) {
			if r.Scheme == "NoSegm" {
				continue
			}
			tb.AddRow(string(w), r.Scheme,
				fmt.Sprint(r.SegmentCount),
				fmt.Sprintf("%.1f", r.SegSizeMeanMB),
				fmt.Sprintf("%.1f", r.SegSizeStdDevMB))
		}
	}
	return tb
}

// AmortizationPoint returns the 1-based query index from which the
// scheme's cumulative time stays below the baseline's cumulative time, or
// 0 if it never does — §6.2 reports APM 1-25 "first amortizing the
// overhead after 30 queries".
func AmortizationPoint(scheme, baseline *stats.Series) int {
	n := scheme.Len()
	if baseline.Len() < n {
		n = baseline.Len()
	}
	point := 0
	for i := n - 1; i >= 0; i-- {
		if scheme.At(i) >= baseline.At(i) {
			point = i + 2 // first index after the last crossing
			break
		}
	}
	if point > n {
		return 0
	}
	if point == 0 {
		point = 1 // below baseline from the very first query
	}
	return point
}

// Experiment is one runnable §6.2 experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(ds *Dataset, cfg Config) string
}

// Experiments lists every §6.2 figure and table.
func Experiments() []Experiment {
	chartFor := func(name WorkloadName, cumulative bool) func(*Dataset, Config) string {
		return func(ds *Dataset, cfg Config) string {
			var series []*stats.Series
			var yLabel string
			if cumulative {
				series = CumulativeTimes(ds, name, cfg)
				yLabel = "cumulative time (ms)"
			} else {
				series = MovingAvgTimes(ds, name, cfg)
				yLabel = "moving-average time (ms)"
			}
			ch := &stats.Chart{
				Title:  fmt.Sprintf("%s workload", name),
				XLabel: "query #", YLabel: yLabel,
				Width: 76, Height: 22,
			}
			for _, s := range series {
				ch.AddSeriesFrom(s)
			}
			return ch.Render()
		}
	}
	return []Experiment{
		{ID: "fig10", Title: "Figure 10: adaptation vs selection times",
			Run: func(ds *Dataset, cfg Config) string { return Fig10(ds, cfg).Render() }},
		{ID: "fig11", Title: "Figure 11: cumulative time, random workload", Run: chartFor(Random, true)},
		{ID: "fig12", Title: "Figure 12: moving average, random workload", Run: chartFor(Random, false)},
		{ID: "fig13", Title: "Figure 13: cumulative time, skewed workload", Run: chartFor(Skewed, true)},
		{ID: "fig14", Title: "Figure 14: moving average, skewed workload", Run: chartFor(Skewed, false)},
		{ID: "fig15", Title: "Figure 15: cumulative time, changing workload", Run: chartFor(Changing, true)},
		{ID: "fig16", Title: "Figure 16: moving average, changing workload", Run: chartFor(Changing, false)},
		{ID: "table2", Title: "Table 2: segments statistics",
			Run: func(ds *Dataset, cfg Config) string { return Table2(ds, cfg).Render() }},
		{ID: "fig10repl", Title: "Extension: Figure 10 with adaptive replication",
			Run: func(ds *Dataset, cfg Config) string { return Fig10Replication(ds, cfg).Render() }},
		{ID: "fig10comp", Title: "Extension: Figure 10 with adaptive compression",
			Run: func(ds *Dataset, cfg Config) string { return Fig10Compression(ds, cfg).Render() }},
		{ID: "concurrent", Title: "Extension: N concurrent clients on one self-organizing column",
			Run: concurrentTable.run},
		{ID: "replicated-concurrent", Title: "Extension: lock-free concurrent scans on a replicated column",
			Run: replicatedConcurrentTable.run},
		{ID: "mixed", Title: "Extension: mixed read-write clients through the MVCC delta store",
			Run: mixedTable.run},
		{ID: "sharded", Title: "Extension: domain-sharded column, concurrent read scaling",
			Run: shardedTable.run},
		{ID: "sharded-mixed", Title: "Extension: domain-sharded column, mixed read-write writer scaling",
			Run: shardedMixedTable.run},
	}
}

// Fig10Compression is the compression extension experiment: the Figure-10
// measurement with the internal/compress advisor encoding every segment
// the APM schemes materialize. The extra columns report the physical
// storage the encodings reach and the resulting compression ratio; the
// time columns show whether scanning fewer bytes pays for the encoding
// work on the virtual disk clock.
func Fig10Compression(ds *Dataset, cfg Config) *stats.Table {
	tb := stats.NewTable(
		"Extension: adaptive compression on the SkyServer workloads (avg ms/query)",
		"Workload", "Scheme", "Adaptation", "Selection", "Total", "Storage MB", "Ratio")
	for _, w := range WorkloadNames() {
		for _, r := range RunWorkloadWith(ds, w, cfg, cfg.CompressionSchemes()) {
			tb.AddRow(string(w), r.Scheme,
				fmt.Sprintf("%.1f", r.AdaptationMs.Mean()),
				fmt.Sprintf("%.1f", r.SelectionMs.Mean()),
				fmt.Sprintf("%.1f", r.TotalMs.Mean()),
				fmt.Sprintf("%.0f", r.StorageMB),
				fmt.Sprintf("%.2fx", r.CompressionRatio))
		}
	}
	return tb
}

// Fig10Replication is the extension experiment: the Figure-10 measurement
// repeated with adaptive replication (§5) on the prototype, which the
// paper only ran in simulation. The extra column reports the replica
// storage replication trades for its lower adaptation overhead.
func Fig10Replication(ds *Dataset, cfg Config) *stats.Table {
	tb := stats.NewTable(
		"Extension: adaptive replication on the SkyServer workloads (avg ms/query)",
		"Workload", "Scheme", "Adaptation", "Selection", "Total", "Peak MB")
	for _, w := range WorkloadNames() {
		for _, r := range RunWorkloadWith(ds, w, cfg, cfg.ReplicationSchemes()) {
			tb.AddRow(string(w), r.Scheme,
				fmt.Sprintf("%.1f", r.AdaptationMs.Mean()),
				fmt.Sprintf("%.1f", r.SelectionMs.Mean()),
				fmt.Sprintf("%.1f", r.TotalMs.Mean()),
				fmt.Sprintf("%.0f", r.PeakStorageMB))
		}
	}
	return tb
}

// SmallTupleFraction returns the fraction of segments smaller than
// tupleThreshold tuples — §6.2's GD worst case observation ("80% of the
// segments contain less than 1000 tuples").
func SmallTupleFraction(sizesBytes []float64, elemSize int64, tupleThreshold int64) float64 {
	if len(sizesBytes) == 0 {
		return 0
	}
	small := 0
	for _, b := range sizesBytes {
		if int64(b)/elemSize < tupleThreshold {
			small++
		}
	}
	return float64(small) / float64(len(sizesBytes))
}

// Summary renders a one-paragraph textual digest of a workload's runs,
// used by cmd/skybench's default output.
func Summary(results []*RunResult) string {
	var b strings.Builder
	var base *RunResult
	for _, r := range results {
		if r.Scheme == "NoSegm" {
			base = r
		}
	}
	for _, r := range results {
		fmt.Fprintf(&b, "%-9s total %8.0f ms  (adapt %7.0f, select %8.0f)",
			r.Scheme, r.TotalMs.Sum(), r.AdaptationMs.Sum(), r.SelectionMs.Sum())
		if base != nil && r != base {
			am := AmortizationPoint(r.TotalMs.Cumulative(), base.TotalMs.Cumulative())
			if am > 0 {
				fmt.Fprintf(&b, "  amortized at query %d", am)
			} else {
				fmt.Fprintf(&b, "  never amortized")
			}
		}
		fmt.Fprintf(&b, "  [%d segments, wall %v]\n", r.SegmentCount, r.WallTime.Round(time.Millisecond))
	}
	return b.String()
}
