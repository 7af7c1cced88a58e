package sky

import "testing"

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
		{Scheme{Name: "GD Repl", Kind: GDScheme, GDSeed: 99, Replication: true}, 4, 4, 0},
	} {
		r := RunClients(ds, c.scheme, Random, cfg, c.clients, 2, c.shards, c.writeRatio)
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
			serial := RunClients(ds, scheme, w, cfg, 1, 1, 1, 0)
			wide := RunClients(ds, scheme, w, cfg, 1, 4, 1, 0)
			if serial.SelectionMs != wide.SelectionMs || serial.AdaptationMs != wide.AdaptationMs {
				t.Errorf("%s/%s: select %.3f ms, adapt %.3f ms at parallelism 1; %.3f ms, %.3f ms at 4",
					scheme.Name, w, serial.SelectionMs, serial.AdaptationMs, wide.SelectionMs, wide.AdaptationMs)
			}
		}
	}
}
