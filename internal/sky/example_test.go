package sky_test

import (
	"fmt"

	"selforg/internal/bpm"
	"selforg/internal/sky"
)

// ExampleRunWorkload runs a scaled-down version of the paper's §6.2
// prototype experiment: a synthetic SkyServer ra column under a
// memory-constrained buffer pool, comparing the non-segmented baseline
// against adaptive segmentation with GD and the two APM variants, on the
// random workload. Every time printed is virtual-clock time, so the
// output does not depend on the host.
func ExampleRunWorkload() {
	cfg := sky.DefaultConfig()
	// Scale ~20x down from the paper-faithful default so the example runs
	// in seconds: 2.2M values (8.8 MB accounted), 6.4 MB buffer.
	cfg.NumValues = 2_200_000
	cfg.Pool = bpm.Config{
		BudgetBytes:        6_400_000,
		MemBandwidth:       2e9,
		DiskReadBandwidth:  300e6,
		DiskWriteBandwidth: 250e6,
	}
	cfg.Mmin = 50 << 10
	cfg.MmaxSmall = 256 << 10
	cfg.MmaxLarge = 1280 << 10
	cfg.Workload.NumQueries = 150

	fmt.Printf("synthetic SkyServer: %d objects, ra column %d MB, buffer %d MB\n",
		cfg.NumValues, int64(cfg.NumValues)*cfg.ElemSize>>20, cfg.Pool.BudgetBytes>>20)

	ds := sky.Generate(cfg.NumValues, cfg.DataSeed)
	results := sky.RunWorkload(ds, sky.Random, cfg)

	fmt.Println("random workload, 150 queries (virtual-clock ms):")
	var base *sky.RunResult
	for _, r := range results {
		if r.Scheme == "NoSegm" {
			base = r
		}
	}
	// amortized is the query at which a scheme's cumulative time drops
	// below the baseline's for good (Figures 10-12).
	fmt.Printf("%-9s %6s %6s %6s %5s %5s %5s %9s %8s\n",
		"scheme", "adapt", "select", "total", "q10", "q50", "q100", "amortized", "segments")
	for _, r := range results {
		cum := r.TotalMs.Cumulative()
		am := "-"
		if r != base {
			am = fmt.Sprint(sky.AmortizationPoint(cum, base.TotalMs.Cumulative()))
		}
		fmt.Printf("%-9s %6.0f %6.0f %6.0f %5.0f %5.0f %5.0f %9s %8d\n", r.Scheme,
			r.AdaptationMs.Sum(), r.SelectionMs.Sum(), r.TotalMs.Sum(),
			cum.At(9), cum.At(49), cum.At(99), am, r.SegmentCount)
	}
	// Output:
	// synthetic SkyServer: 2200000 objects, ra column 8 MB, buffer 6 MB
	// random workload, 150 queries (virtual-clock ms):
	// scheme     adapt select  total   q10   q50  q100 amortized segments
	// NoSegm         0   5060   5060   337  1687  3373         -        1
	// GD           151    428    579   219   358   489         6       21
	// APM 1-25     159    296    455   237   338   398         6       12
	// APM 1-5      275    182    457   244   402   444         6       58
}
