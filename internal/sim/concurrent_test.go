package sim

import "testing"

// The driver's own behaviour (tallies, dice, merging) is tested once in
// internal/workload; these cover what RunMixed adds around it.

func TestRunMixedDealsOpsAndShards(t *testing.T) {
	for _, strat := range []StrategyKind{Segmentation, Replication} {
		for _, shards := range []int{1, 4} {
			cfg := MixedConfig{Clients: 4, Parallelism: 2, WriteRatio: 0.3}
			cfg.Config = DefaultConfig()
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
	cfg.Strategy = Replication
	if r := RunMixed(cfg); r.FinalSegments < 10 {
		t.Fatalf("warm-up never converged the column (%d segments)", r.FinalSegments)
	}
}
