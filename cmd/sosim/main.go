// Command sosim runs the §6.1 simulation experiments of "Self-organizing
// Strategies for a Column-store Database" (EDBT 2008) and renders the
// corresponding figures and tables as ASCII charts plus optional TSV files.
//
// Usage:
//
//	sosim -exp fig5            # one experiment (fig5 fig6 fig7 table1 fig8 fig9)
//	sosim -exp sharded-mixed   # extensions: compress concurrent mixed sharded sharded-mixed
//	sosim -exp all             # everything (paper-faithful scale, ~a minute)
//	sosim -exp fig7 -queries 200   # scaled-down quick run
//	sosim -exp table1 -tsv results/ # also write TSV series
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"selforg/internal/shard"
	"selforg/internal/sim"
	"selforg/internal/stats"
	"selforg/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig5 fig6 fig7 table1 fig8 fig9) or 'all'")
	queries := flag.Int("queries", 0, "cap the query count (0 = paper-faithful)")
	tsvDir := flag.String("tsv", "", "directory to write TSV series into (optional)")
	list := flag.Bool("list", false, "list available experiments")
	flag.Parse()

	if *list {
		for _, e := range sim.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	scale := sim.Scale{Queries: *queries}
	ran := 0
	for _, e := range sim.Experiments() {
		if *exp != "all" && e.ID != *exp {
			continue
		}
		fmt.Printf("== %s ==\n", e.Title)
		fmt.Println(e.Run(scale))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "sosim: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	if *tsvDir != "" {
		if err := writeTSVs(*tsvDir, scale); err != nil {
			fmt.Fprintf(os.Stderr, "sosim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("TSV series written to %s\n", *tsvDir)
	}
}

// writeTSVs exports the raw series of every figure for external plotting.
func writeTSVs(dir string, scale sim.Scale) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, series []*stats.Series) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return stats.WriteSeriesTSV(f, series...)
	}
	n := func(paper int) int {
		if scale.Queries > 0 && scale.Queries < paper {
			return scale.Queries
		}
		return paper
	}
	for _, sel := range []float64{0.1, 0.01} {
		tag := strings.ReplaceAll(fmt.Sprintf("%g", sel), ".", "")
		cum := func(dist workload.Kind) []*stats.Series {
			out := sim.CumulativeWrites(dist, sel, n(10_000))
			return out
		}
		if err := write("fig5_writes_uniform_"+tag+".tsv", cum(workload.KindUniform)); err != nil {
			return err
		}
		if err := write("fig6_writes_zipf_"+tag+".tsv", cum(workload.KindZipf)); err != nil {
			return err
		}
		if err := write("fig8_storage_uniform_"+tag+".tsv",
			sim.ReplicaStorage(workload.KindUniform, sel, n(500))); err != nil {
			return err
		}
		if err := write("fig9_storage_zipf_"+tag+".tsv",
			sim.ReplicaStorage(workload.KindZipf, sel, n(10_000))); err != nil {
			return err
		}
	}
	if err := write("fig7_reads_uniform_01.tsv",
		sim.ReadsPerQuery(workload.KindUniform, 0.1, n(1000))); err != nil {
		return err
	}
	// Compression extension: physical vs logical storage per query.
	if err := write("compress_storage_segm.tsv",
		sim.CompressedStorage(shard.Segmentation, 0, n(2000))); err != nil {
		return err
	}
	if err := write("compress_storage_repl_lowcard.tsv",
		sim.CompressedStorage(shard.Replication, 64, n(2000))); err != nil {
		return err
	}
	// Per-encoding storage counters (PR-1 follow-up): segment counts and
	// bytes per encoding after adaptive-compression runs.
	ef, err := os.Create(filepath.Join(dir, "encodings.tsv"))
	if err != nil {
		return err
	}
	if err := sim.EncodingTable(n(2000)).WriteTSV(ef); err != nil {
		ef.Close()
		return err
	}
	if err := ef.Close(); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "table1.tsv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return sim.Table1(n(10_000)).WriteTSV(f)
}
