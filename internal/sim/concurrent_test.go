package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"selforg/internal/shard"
)

// The driver's own behaviour (tallies, dice, merging) is tested once in
// internal/workload; these cover what RunMixed adds around it.

func TestRunMixedDealsOpsAndShards(t *testing.T) {
	for _, strat := range segmRepl {
		for _, shards := range []int{1, 4} {
			cfg := MixedConfig{Config: DefaultConfig(), Clients: 4, WriteRatio: 0.3}
			cfg.Parallelism = 2
			cfg.ColumnCount = 20_000
			cfg.NumQueries = 400
			cfg.Strategy = strat
			cfg.Shards = shards
			r := RunMixed(cfg)
			if r.Queries+r.Writes != 400 || r.Queries == 0 || r.Writes == 0 {
				t.Errorf("%s: %d queries + %d writes, want 400 operations of both kinds",
					cfg.StrategyName(), r.Queries, r.Writes)
			}
			if r.FinalSegments < 2*shards {
				t.Errorf("%s: column never reorganized (%d segments)", cfg.StrategyName(), r.FinalSegments)
			}
		}
	}
}

func TestRunMixedWarmupConverges(t *testing.T) {
	// One operation after the warm-up: whatever layout the run ends with,
	// the warm-up built — with a write ratio set, too.
	cfg := MixedConfig{Clients: 1, WarmupQueries: 300, WriteRatio: 0.5}
	cfg.Config = DefaultConfig()
	cfg.ColumnCount = 20_000
	cfg.NumQueries = 1
	cfg.Strategy = shard.Replication
	if r := RunMixed(cfg); r.FinalSegments < 10 {
		t.Fatalf("warm-up never converged the column (%d segments)", r.FinalSegments)
	}
}

// TestClientsTables runs every multi-client table beyond one client at a
// small scale: the header is the declared column list, and on every row
// the key cells (Strategy, Shards, Clients, Write%) list the grid in
// nesting order.
func TestClientsTables(t *testing.T) {
	for name, ct := range map[string]clientsTable{
		"concurrent":            concurrentTable,
		"replicated-concurrent": replicatedConcurrentTable,
		"mixed":                 mixedTable,
		"sharded":               shardedTable,
		"sharded-mixed":         shardedMixedTable,
	} {
		var want [][]string // per row, the key cells in column order
		for _, strat := range ct.strategies {
			for _, shards := range ct.shards {
				for _, clients := range ct.clients {
					for _, ratio := range ct.writes {
						c := DefaultConfig()
						c.Strategy, c.Shards = strat, shards
						keys := map[string]string{
							"Strategy": c.StrategyName(),
							"Shards":   fmt.Sprint(shards),
							"Clients":  fmt.Sprint(clients),
							"Write%":   fmt.Sprintf("%.0f", ratio*100),
						}
						var row []string
						for _, col := range ct.cols {
							if k, ok := keys[col]; ok {
								row = append(row, k)
							}
						}
						want = append(want, row)
					}
				}
			}
		}
		var b bytes.Buffer
		if err := ct.table(40).WriteTSV(&b); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
		if lines[0] != strings.Join(ct.cols, "\t") {
			t.Errorf("%s: header %q, want %q", name, lines[0], ct.cols)
		}
		if len(lines)-1 != len(want) {
			t.Fatalf("%s: %d rows, want %d", name, len(lines)-1, len(want))
		}
		for i, line := range lines[1:] {
			var got []string
			for j, cell := range strings.Split(line, "\t") {
				switch ct.cols[j] {
				case "Strategy", "Shards", "Clients", "Write%":
					got = append(got, cell)
				}
			}
			if strings.Join(got, "|") != strings.Join(want[i], "|") {
				t.Errorf("%s row %d: keys %q, want %q", name, i, got, want[i])
			}
		}
	}
}
