package sky

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// The driver's own behaviour (tallies, dice, merging) is tested once in
// internal/workload; this covers what RunClients adds around it: the
// round-robin deal, the shard split and the virtual clock.
func TestRunClientsDealsWorkloadOnVirtualClock(t *testing.T) {
	cfg := testConfig()
	ds := testDataset(t, cfg)
	for _, c := range []struct {
		scheme          Scheme
		clients, shards int
		writeRatio      float64
	}{
		{apm15(cfg, false), 1, 1, 0},
		{apm15(cfg, false), 4, 1, 0},
		{apm15(cfg, false), 7, 2, 0.3}, // 120 queries do not deal evenly over 7 clients
		{cfg.ReplicationSchemes()[1], 4, 4, 0},
	} {
		c.scheme.Parallelism, c.scheme.Shards = 2, c.shards
		r := RunClients(ds, c.scheme, Random, cfg, c.clients, c.writeRatio)
		if r.Queries+r.Writes != cfg.Workload.NumQueries || (r.Writes > 0) != (c.writeRatio > 0) {
			t.Errorf("%+v: %d queries + %d writes, want %d operations", c, r.Queries, r.Writes, cfg.Workload.NumQueries)
		}
		if r.SegmentCount < 2*c.shards {
			t.Errorf("%+v: column never reorganized (%d segments)", c, r.SegmentCount)
		}
		if r.SelectionMs <= 0 || r.Pool.LogicalReads == 0 {
			t.Errorf("%+v: no virtual selection time (%v ms) or pool traffic (%d reads) accounted",
				c, r.SelectionMs, r.Pool.LogicalReads)
		}
	}
}

// TestVirtualClockIndependentOfParallelism: the buffer pool sees the
// Tracer's event stream, and one querying goroutine emits it in plan
// order at every scan fan-out, so a single client's virtual selection
// and adaptation times do not depend on the strategy's parallelism.
func TestVirtualClockIndependentOfParallelism(t *testing.T) {
	cfg := goldenConfig()
	ds := testDataset(t, cfg)
	for _, scheme := range []Scheme{apm15(cfg, false), apm15(cfg, true)} {
		for _, w := range WorkloadNames() {
			scheme.Parallelism = 1
			serial := RunClients(ds, scheme, w, cfg, 1, 0)
			scheme.Parallelism = 4
			wide := RunClients(ds, scheme, w, cfg, 1, 0)
			if serial.SelectionMs != wide.SelectionMs || serial.AdaptationMs != wide.AdaptationMs {
				t.Errorf("%s/%s: select %.3f ms, adapt %.3f ms at parallelism 1; %.3f ms, %.3f ms at 4",
					scheme.Name, w, serial.SelectionMs, serial.AdaptationMs, wide.SelectionMs, wide.AdaptationMs)
			}
		}
	}
}

// TestClientsTables runs every multi-client table beyond one client at a
// small scale: the header is the declared column list, and on every row
// the key cells (Workload, Shards, Clients, Write%) list the grid in
// nesting order.
func TestClientsTables(t *testing.T) {
	cfg := testConfig()
	cfg.NumValues = 100_000
	cfg.Workload.NumQueries = 12
	ds := testDataset(t, cfg)
	for name, ct := range map[string]clientsTable{
		"concurrent":            concurrentTable,
		"replicated-concurrent": replicatedConcurrentTable,
		"mixed":                 mixedTable,
		"sharded":               shardedTable,
		"sharded-mixed":         shardedMixedTable,
	} {
		var want [][]string // per row, the key cells in column order
		for _, w := range WorkloadNames() {
			for _, shards := range ct.shards {
				for _, clients := range ct.clients {
					for _, ratio := range ct.writes {
						keys := map[string]string{
							"Workload": string(w),
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
		if err := ct.table(ds, cfg).WriteTSV(&b); err != nil {
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
				case "Workload", "Shards", "Clients", "Write%":
					got = append(got, cell)
				}
			}
			if strings.Join(got, "|") != strings.Join(want[i], "|") {
				t.Errorf("%s row %d: keys %q, want %q", name, i, got, want[i])
			}
		}
	}
}
