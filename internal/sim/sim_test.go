package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"selforg/internal/compress"
	"selforg/internal/domain"
	"selforg/internal/shard"
	"selforg/internal/stats"
	"selforg/internal/workload"
)

// smallCfg shrinks the paper setup ~10x for fast unit tests while keeping
// the same proportions (selection size : Mmin : Mmax : column size).
func smallCfg() Config {
	c := DefaultConfig()
	c.ColumnCount = 10_000
	c.Dom = domain.NewRange(0, 99_999)
	c.NumQueries = 600
	c.APMMin = 300
	c.APMMax = 1200
	return c
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.ColumnCount != 100_000 {
		t.Errorf("column count = %d", c.ColumnCount)
	}
	if c.Dom.Width() != 1_000_000 {
		t.Errorf("domain width = %d", c.Dom.Width())
	}
	if c.ElemSize != 4 {
		t.Errorf("elem size = %d", c.ElemSize)
	}
	if c.NumQueries != 10_000 {
		t.Errorf("queries = %d", c.NumQueries)
	}
	if c.APMMin != 3*1024 || c.APMMax != 12*1024 {
		t.Errorf("APM bounds = %d/%d", c.APMMin, c.APMMax)
	}
	// The paper's "400 KB" column: 100K values x 4 bytes = 400,000 bytes.
	if ColumnBytesDefault() != domain.ByteSize(400_000) {
		t.Errorf("DB size = %v, want 400000 bytes", ColumnBytesDefault())
	}
}

func TestGenerateColumn(t *testing.T) {
	dom := domain.NewRange(0, 999)
	vals := GenerateColumn(5000, dom, 42)
	if len(vals) != 5000 {
		t.Fatalf("len = %d", len(vals))
	}
	seen := map[int64]bool{}
	for _, v := range vals {
		if !dom.Contains(v) {
			t.Fatalf("value %d outside domain", v)
		}
		seen[v*10/dom.Width()] = true
	}
	if len(seen) != 10 {
		t.Errorf("coverage: %d/10 deciles", len(seen))
	}
	again := GenerateColumn(5000, dom, 42)
	for i := range vals {
		if vals[i] != again[i] {
			t.Fatal("same seed diverged")
		}
	}
}

// TestGenerateWideExtents: extents of 2^63 values or more, where
// Range.Width wraps, draw over their full uint64 width, while narrower
// extents keep the Int63n stream the goldens and the benchmark oracle
// regenerate.
func TestGenerateWideExtents(t *testing.T) {
	for _, dom := range []domain.Range{
		{Lo: math.MinInt64, Hi: math.MaxInt64},
		{Lo: math.MinInt64 + 1, Hi: math.MaxInt64},
		{Lo: 0, Hi: math.MaxInt64},
		{Lo: -1, Hi: math.MaxInt64},
	} {
		span := uint64(dom.Hi) - uint64(dom.Lo)
		decile := func(v domain.Value) uint64 { return (uint64(v) - uint64(dom.Lo)) / (span/10 + 1) }
		seen := map[uint64]bool{}
		for _, v := range GenerateColumn(2000, dom, 7) {
			if !dom.Contains(v) {
				t.Fatalf("%v: value %d outside the extent", dom, v)
			}
			seen[decile(v)] = true
		}
		if len(seen) != 10 {
			t.Errorf("%v: uniform draws cover %d/10 deciles", dom, len(seen))
		}
		distinct := map[domain.Value]bool{}
		for _, v := range GenerateLowCardColumn(2000, dom, 64, 7) {
			if !dom.Contains(v) {
				t.Fatalf("%v: low-cardinality value %d outside the extent", dom, v)
			}
			distinct[v] = true
		}
		if len(distinct) != 64 {
			t.Errorf("%v: %d distinct low-cardinality values, want 64", dom, len(distinct))
		}
		hiDecile := false
		for v := range distinct {
			hiDecile = hiDecile || decile(v) == 9
		}
		if !hiDecile {
			t.Errorf("%v: low-cardinality values never reach the top decile", dom)
		}
	}
	dom := domain.NewRange(-500, 999_999)
	rng := rand.New(rand.NewSource(9))
	for i, v := range GenerateColumn(1000, dom, 9) {
		if want := dom.Lo + rng.Int63n(dom.Width()); v != want {
			t.Fatalf("narrow extent draw %d = %d, want the Int63n stream's %d", i, v, want)
		}
	}
}

func TestRunProducesFullSeries(t *testing.T) {
	c := smallCfg()
	r := Run(c)
	if r.Writes.Len() != c.NumQueries || r.Reads.Len() != c.NumQueries || r.Storage.Len() != c.NumQueries {
		t.Fatalf("series lengths %d/%d/%d", r.Writes.Len(), r.Reads.Len(), r.Storage.Len())
	}
	if r.FinalSegments < 2 {
		t.Errorf("no reorganization happened: %d segments", r.FinalSegments)
	}
	if r.ColumnBytes != 40_000 {
		t.Errorf("column bytes = %d", r.ColumnBytes)
	}
}

func TestRunDeterministic(t *testing.T) {
	c := smallCfg()
	a, b := Run(c), Run(c)
	if a.Writes.Sum() != b.Writes.Sum() || a.Reads.Sum() != b.Reads.Sum() {
		t.Error("same config diverged")
	}
}

func TestSegmentationStorageConstantReplicationVaries(t *testing.T) {
	c := smallCfg()
	c.Strategy = shard.Segmentation
	seg := Run(c)
	if seg.Storage.Min() != seg.Storage.Max() {
		t.Error("segmentation storage must be constant")
	}
	c.Strategy = shard.Replication
	rep := Run(c)
	if rep.Storage.Max() <= float64(rep.ColumnBytes) {
		t.Error("replication storage never exceeded the column size")
	}
}

// TestReplicationWritesLess verifies the §6.1.1 headline on the scaled
// setup for both models and both distributions.
func TestReplicationWritesLess(t *testing.T) {
	for _, m := range []shard.Model{shard.GD, shard.APM} {
		for _, dist := range []workload.Kind{workload.KindUniform, workload.KindZipf} {
			c := smallCfg()
			c.Model = m
			c.Dist = dist
			c.Strategy = shard.Segmentation
			seg := Run(c)
			c.Strategy = shard.Replication
			rep := Run(c)
			if rep.Writes.Sum() >= seg.Writes.Sum() {
				t.Errorf("%v/%v: repl writes %.0f >= segm writes %.0f",
					m, dist, rep.Writes.Sum(), seg.Writes.Sum())
			}
		}
	}
}

// TestAPMSaturates verifies "the APM model stops reorganizing the column
// after an initial number of queries" for uniform load (§6.1.1): the bulk
// of all write volume lands in the first quarter of the run.
func TestAPMSaturates(t *testing.T) {
	c := smallCfg()
	c.NumQueries = 2000
	c.Model = shard.APM
	c.Strategy = shard.Segmentation
	r := Run(c)
	cum := r.Writes.Cumulative()
	early := cum.At(c.NumQueries/4 - 1)
	total := cum.At(c.NumQueries - 1)
	if frac := early / total; frac < 0.80 {
		t.Errorf("APM write volume in first quarter = %.2f, want >= 0.80 (saturation)", frac)
	}
}

// TestGDKeepsReorganizingLongerThanAPM: "the GD model keeps issuing
// reorganization with decreasing probability" (§6.1.1) — GD front-loads a
// smaller fraction of its write volume than APM does.
func TestGDKeepsReorganizingLongerThanAPM(t *testing.T) {
	c := smallCfg()
	c.NumQueries = 2000
	c.Strategy = shard.Segmentation
	frontFrac := func(m shard.Model) float64 {
		c.Model = m
		r := Run(c)
		cum := r.Writes.Cumulative()
		return cum.At(c.NumQueries/4-1) / cum.At(c.NumQueries-1)
	}
	apm, gd := frontFrac(shard.APM), frontFrac(shard.GD)
	if gd >= apm {
		t.Errorf("GD front-load %.3f >= shard.APM front-load %.3f — GD should keep splitting longer", gd, apm)
	}
}

// TestReadsConvergeTowardsResultSize reproduces Table 1's row logic: with
// selectivity 0.1 the tail-average read size approaches the result size.
func TestReadsConvergeTowardsResultSize(t *testing.T) {
	c := smallCfg()
	c.NumQueries = 1500
	c.Strategy = shard.Segmentation
	c.Model = shard.APM
	r := Run(c)
	resultBytes := float64(c.ElemSize) * float64(c.ColumnCount) * c.Selectivity // 4 KB here
	tail := r.Reads.Tail(300)
	if tail > 2.5*resultBytes {
		t.Errorf("tail reads %.0f, want near result size %.0f", tail, resultBytes)
	}
	first := r.Reads.At(0)
	if first != float64(r.ColumnBytes) {
		t.Errorf("first query read %.0f, want full column %d", first, r.ColumnBytes)
	}
}

// TestAPMReadsBoundedByMmaxSmallSelectivity reproduces the Table 1
// observation that with selectivity 0.01 APM reads stay between the result
// size and a few Mmax ("converges to 11-13KB and does not reach the
// minimum determined by the selection size of 4KB").
func TestAPMReadsBoundedByMmaxSmallSelectivity(t *testing.T) {
	c := smallCfg()
	c.Selectivity = 0.01
	c.NumQueries = 2000
	c.Strategy = shard.Segmentation
	c.Model = shard.APM
	r := Run(c)
	resultBytes := float64(c.ElemSize) * float64(c.ColumnCount) * c.Selectivity
	tail := r.Reads.Tail(300)
	if tail < resultBytes {
		t.Errorf("tail reads %.0f below result size %.0f — impossible", tail, resultBytes)
	}
	if tail > 4*float64(c.APMMax) {
		t.Errorf("tail reads %.0f not bounded by Mmax regime (%d)", tail, c.APMMax)
	}
}

// TestReplicationFullScanSpikes: Figure 7's replication panels show
// early full-column spikes when queries hit untouched areas.
func TestReplicationFullScanSpikes(t *testing.T) {
	c := smallCfg()
	c.Strategy = shard.Replication
	c.Model = shard.APM
	r := Run(c)
	spikes := 0
	for i := 1; i < 100 && i < r.Reads.Len(); i++ {
		if r.Reads.At(i) >= float64(r.ColumnBytes) {
			spikes++
		}
	}
	if spikes == 0 {
		t.Error("no early full-scan spikes in replication reads")
	}
}

// TestReplicaStoragePeaksAndDrops reproduces the Figure 8 shape: storage
// grows well past the column size, then big drops release it as parents
// become fully replicated.
func TestReplicaStoragePeaksAndDrops(t *testing.T) {
	c := smallCfg()
	c.Strategy = shard.Replication
	c.Model = shard.APM
	c.NumQueries = 2000
	r := Run(c)
	peak := PeakExtraStorageRatio(r.Storage, r.ColumnBytes)
	if peak < 0.4 {
		t.Errorf("peak extra storage ratio = %.2f, want substantial growth", peak)
	}
	if r.Drops == 0 {
		t.Error("no replica drops happened")
	}
	final := r.Storage.At(r.Storage.Len() - 1)
	if final >= r.Storage.Max() {
		t.Error("storage never reduced from its peak")
	}
}

// TestGDStorageFallsFasterThanAPM: §6.1.3 "storage needs always reduce
// faster with the GD model".
func TestGDStorageFallsFasterThanAPM(t *testing.T) {
	c := smallCfg()
	c.Strategy = shard.Replication
	c.NumQueries = 2000
	c.Model = shard.GD
	gd := Run(c)
	c.Model = shard.APM
	apm := Run(c)
	// Compare the mean storage over the last quarter of the run.
	n := c.NumQueries / 4
	if gd.Storage.Tail(n) > apm.Storage.Tail(n)*1.15 {
		t.Errorf("GD tail storage %.0f much higher than APM %.0f",
			gd.Storage.Tail(n), apm.Storage.Tail(n))
	}
}

func TestFourStrategies(t *testing.T) {
	cfgs := FourStrategies(smallCfg())
	if len(cfgs) != 4 {
		t.Fatalf("len = %d", len(cfgs))
	}
	names := map[string]bool{}
	for _, c := range cfgs {
		names[c.StrategyName()] = true
	}
	for _, want := range []string{"GD Segm", "GD Repl", "APM Segm", "APM Repl"} {
		if !names[want] {
			t.Errorf("missing strategy %q", want)
		}
	}
}

func TestCumulativeWritesSeries(t *testing.T) {
	// Shrunk run through the figure driver; series must be monotone.
	series := CumulativeWrites(workload.KindUniform, 0.1, 50)
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		for i := 1; i < s.Len(); i++ {
			if s.At(i) < s.At(i-1) {
				t.Fatalf("%s not monotone at %d", s.Name, i)
			}
		}
	}
}

func TestTable1Shape(t *testing.T) {
	tb := Table1(50)
	if tb.NumRows() != 4 {
		t.Errorf("rows = %d", tb.NumRows())
	}
	out := tb.Render()
	for _, want := range []string{"U 0.1", "Z 0.01", "GD Segm", "APM Repl"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestReplicaStorageSeriesIncludesDBSize(t *testing.T) {
	series := ReplicaStorage(workload.KindUniform, 0.1, 50)
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	db := series[2]
	if db.Name != "DB size" {
		t.Errorf("last series = %q", db.Name)
	}
	if db.Min() != db.Max() {
		t.Error("DB size line must be constant")
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	ids := map[string]bool{}
	for _, e := range exps {
		ids[e.ID] = true
	}
	for _, want := range []string{"fig2", "fig5", "fig6", "fig7", "table1", "fig8", "fig9", "report"} {
		if !ids[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
}

func TestExperimentsRenderScaled(t *testing.T) {
	// Smoke-run every registered experiment at a tiny scale.
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, e := range Experiments() {
		out := e.Run(Scale{Queries: 30})
		if len(out) == 0 {
			t.Errorf("%s produced no output", e.ID)
		}
	}
}

// TestStrategyName pins the figure labels over model × strategy ×
// compression × shards.
func TestStrategyName(t *testing.T) {
	var got []string
	for _, m := range []shard.Model{shard.APM, shard.GD, shard.None} {
		for _, strat := range segmRepl {
			for _, mode := range []compress.Mode{compress.Off, compress.Auto} {
				for _, shards := range []int{1, 4} {
					c := DefaultConfig()
					c.Model, c.Strategy, c.Compression, c.Shards = m, strat, mode, shards
					got = append(got, c.StrategyName())
				}
			}
		}
	}
	want := []string{
		"APM Segm", "APM Segm x4sh", "APM Segm +C", "APM Segm +C x4sh",
		"APM Repl", "APM Repl x4sh", "APM Repl +C", "APM Repl +C x4sh",
		"GD Segm", "GD Segm x4sh", "GD Segm +C", "GD Segm +C x4sh",
		"GD Repl", "GD Repl x4sh", "GD Repl +C", "GD Repl +C x4sh",
		"none Segm", "none Segm x4sh", "none Segm +C", "none Segm +C x4sh",
		"none Repl", "none Repl x4sh", "none Repl +C", "none Repl +C x4sh",
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("StrategyName labels:\n got %q\nwant %q", got, want)
	}
}

func TestScaleQueries(t *testing.T) {
	if (Scale{}).queries(100) != 100 {
		t.Error("zero scale must keep paper count")
	}
	if (Scale{Queries: 10}).queries(100) != 10 {
		t.Error("scale must cap")
	}
	if (Scale{Queries: 1000}).queries(100) != 100 {
		t.Error("scale must not inflate")
	}
}

func TestSaturationPoint(t *testing.T) {
	ser := newSeries(0, 5, 0, 3, 0, 0)
	if got := SaturationPoint(ser); got != 4 {
		t.Errorf("saturation = %d, want 4", got)
	}
	if got := SaturationPoint(newSeries(0, 0)); got != 0 {
		t.Errorf("all-zero saturation = %d, want 0", got)
	}
}

func newSeries(vals ...float64) *stats.Series {
	s := stats.NewSeries("t")
	for _, v := range vals {
		s.Append(v)
	}
	return s
}
