package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"selforg/internal/shard"
	"selforg/internal/stats"
	"selforg/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// golden compares got with testdata/<name>.golden byte for byte.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from %s:\n--- got\n%s\n--- want\n%s", name, path, got, want)
	}
}

// goldenQueries is the -queries scale the pinned exhibits run at.
const goldenQueries = 120

// TestGoldenExhibits pins every TSV `sosim -tsv` exports (Figures 5–9,
// Table 1, the compression extension) at a small -queries scale. The
// files were written at the commit before the multi-client drivers were
// collapsed into internal/workload, so "the reproduction did not move"
// is checked, not asserted.
func TestGoldenExhibits(t *testing.T) {
	series := func(name string, s []*stats.Series) {
		t.Helper()
		var b bytes.Buffer
		if err := stats.WriteSeriesTSV(&b, s...); err != nil {
			t.Fatal(err)
		}
		golden(t, name+".tsv", b.Bytes())
	}
	table := func(name string, tb *stats.Table) {
		t.Helper()
		var b bytes.Buffer
		if err := tb.WriteTSV(&b); err != nil {
			t.Fatal(err)
		}
		golden(t, name+".tsv", b.Bytes())
	}
	for _, sel := range []float64{0.1, 0.01} {
		tag := strings.ReplaceAll(fmt.Sprint(sel), ".", "")
		series("fig5_writes_uniform_"+tag, CumulativeWrites(workload.KindUniform, sel, goldenQueries))
		series("fig6_writes_zipf_"+tag, CumulativeWrites(workload.KindZipf, sel, goldenQueries))
		series("fig8_storage_uniform_"+tag, ReplicaStorage(workload.KindUniform, sel, goldenQueries))
		series("fig9_storage_zipf_"+tag, ReplicaStorage(workload.KindZipf, sel, goldenQueries))
	}
	series("fig7_reads_uniform_01", ReadsPerQuery(workload.KindUniform, 0.1, goldenQueries))
	series("compress_storage_segm", CompressedStorage(shard.Segmentation, 0, goldenQueries))
	series("compress_storage_repl_lowcard", CompressedStorage(shard.Replication, 64, goldenQueries))
	table("encodings", EncodingTable(goldenQueries))
	table("table1", Table1(goldenQueries))
}

var cellGap = regexp.MustCompile(`\s{2,}`)

// singleClientRows keeps, of a rendered experiment table, the header and
// the rows whose Clients cell is 1 — one client is one goroutine, so
// those rows are deterministic — with the wall-clock cells masked. The
// title (it names GOMAXPROCS) and the separator are dropped.
func singleClientRows(t *testing.T, rendered string) string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(rendered), "\n")
	header := cellGap.Split(strings.TrimSpace(lines[1]), -1)
	clients := -1
	masked := map[int]bool{}
	for i, h := range header {
		switch h {
		case "Clients":
			clients = i
		case "Wall ms", "QPS", "QPS/client", "OPS":
			masked[i] = true
		}
	}
	if clients < 0 {
		t.Fatalf("table has no Clients column:\n%s", rendered)
	}
	var b strings.Builder
	b.WriteString(strings.Join(header, "\t") + "\n")
	for _, line := range lines[3:] {
		cells := cellGap.Split(strings.TrimSpace(line), -1)
		if cells[clients] != "1" {
			continue
		}
		for i := range cells {
			if masked[i] {
				cells[i] = "-"
			}
		}
		b.WriteString(strings.Join(cells, "\t") + "\n")
	}
	return b.String()
}

// TestGoldenSingleClient pins the Clients=1 rows of the multi-client
// experiments. "sharded-mixed" only tabulates four clients, so its
// configurations are re-run here with one.
func TestGoldenSingleClient(t *testing.T) {
	scale := Scale{Queries: 400}
	for _, e := range Experiments() {
		switch e.ID {
		case "concurrent", "replicated-concurrent", "mixed", "sharded":
			golden(t, "clients1_"+e.ID+".tsv", []byte(singleClientRows(t, e.Run(scale))))
		}
	}

	var b strings.Builder
	b.WriteString("Strategy\tShards\tQueries\tWrites\tMisses\tMerges\tMerged\tReads B\tWrites B\tOverlay B\tResults\tSplits\tRecodes\tSegments\n")
	for _, strat := range segmRepl {
		for _, shards := range []int{1, 2, 4} {
			cfg := MixedConfig{Config: DefaultConfig(), WriteRatio: 0.5}
			cfg.DeltaMaxBytes = 256
			cfg.NumQueries = scale.Queries
			cfg.Strategy = strat
			cfg.Shards = shards
			cfg.Clients = 1
			r := RunMixed(cfg)
			fmt.Fprintf(&b, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
				cfg.StrategyName(), shards, r.Queries, r.Writes, r.Misses,
				r.Delta.Merges, r.Delta.MergedEntries,
				r.Stats.ReadBytes, r.Stats.WriteBytes, r.Stats.DeltaReadBytes, r.Stats.ResultCount,
				r.Stats.Splits, r.Stats.Recodes, r.FinalSegments)
		}
	}
	golden(t, "clients1_sharded-mixed.tsv", []byte(b.String()))
}
