package sky

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"selforg/internal/stats"
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

// goldenConfig is the scale of the shape tests: 400K values, 40 queries
// per workload.
func goldenConfig() Config {
	cfg := testConfig()
	cfg.Workload.NumQueries = 40
	return cfg
}

// TestGoldenExhibits pins Figure 10 and Table 2 on the virtual clock at
// the tiny test scale. The files were written at the commit before the
// multi-client drivers were collapsed into internal/workload, so "the
// reproduction did not move" is checked, not asserted.
func TestGoldenExhibits(t *testing.T) {
	cfg := goldenConfig()
	ds := testDataset(t, cfg)
	for name, tb := range map[string]*stats.Table{
		"fig10":  Fig10(ds, cfg),
		"table2": Table2(ds, cfg),
	} {
		var b bytes.Buffer
		if err := tb.WriteTSV(&b); err != nil {
			t.Fatal(err)
		}
		golden(t, name+".tsv", b.Bytes())
	}
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
// experiments. "sharded" and "sharded-mixed" only tabulate four clients,
// so their configurations are re-run here with one.
func TestGoldenSingleClient(t *testing.T) {
	cfg := goldenConfig()
	ds := testDataset(t, cfg)
	for _, e := range Experiments() {
		switch e.ID {
		case "concurrent", "replicated-concurrent", "mixed":
			golden(t, "clients1_"+e.ID+".tsv", []byte(singleClientRows(t, e.Run(ds, cfg))))
		}
	}

	scheme := apm15(cfg, false)
	var rd, wr strings.Builder
	rd.WriteString("Workload\tShards\tQueries\tSelect ms\tAdapt ms\tSegments\tStorage MB\n")
	wr.WriteString("Workload\tShards\tQueries\tWrites\tMisses\tSelect ms\tAdapt ms\tMerges\tMerged\tSegments\tStorage MB\n")
	for _, w := range WorkloadNames() {
		for _, shards := range []int{1, 2, 4} {
			scheme.Shards = shards
			r := RunClients(ds, scheme, w, cfg, 1, 0)
			fmt.Fprintf(&rd, "%s\t%d\t%d\t%.3f\t%.3f\t%d\t%.3f\n",
				w, shards, r.Queries, r.SelectionMs, r.AdaptationMs, r.SegmentCount, r.StorageMB)
			m := RunClients(ds, scheme, w, cfg, 1, 0.5)
			fmt.Fprintf(&wr, "%s\t%d\t%d\t%d\t%d\t%.3f\t%.3f\t%d\t%d\t%d\t%.3f\n",
				w, shards, m.Queries, m.Writes, m.Misses, m.SelectionMs, m.AdaptationMs,
				m.Merges, m.MergedEntries, m.SegmentCount, m.StorageMB)
		}
	}
	golden(t, "clients1_sharded.tsv", []byte(rd.String()))
	golden(t, "clients1_sharded-mixed.tsv", []byte(wr.String()))
}
