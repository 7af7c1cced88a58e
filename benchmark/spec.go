package main

// The names the benchmark reports. BENCHMARK.json at the repository root
// repeats endToEnd and perLayer; spec_test.go keeps the two in step.

// metricSpec declares one metric. Bound is the share of the base value by
// which an end-to-end metric may get worse before it counts as a
// regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the metrics every workload reports on its last output
// line. They are the ones all four workloads have and none can report as
// zero: each workload issues COUNT and SELECT, delivers rows and holds
// bytes. op_p95_ms is the tail over all statements of a workload, writes
// included; it is the p95 because on two shared cores the slowest 2% of
// serve_hot's statements are those that met a collection or a descheduled
// thread, and a p99 there spreads by 10–35% between runs of the same code.
// The bounds are what the sandbox resolves: at least three times the
// run-to-run spread README.md records, and at most the 0.25 allowed.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"rows_per_s", "1/s", higher, 0.25},
	{"count_p50_ms", "ms", lower, 0.25},
	{"select_p50_ms", "ms", lower, 0.25},
	{"op_p95_ms", "ms", lower, 0.25},
	{"space_amp", "ratio", lower, 0.15},
}

// classMetrics are end-to-end metrics that are printed, written to the
// report and compared by -compare, but are not in BENCHMARK.json. Some
// exist on one workload only — SUM is scan_wide's, writes are mixed_rw's,
// the start-up cost is adapt_cold's — and BENCHMARK.json's metrics must
// come from every workload. The p99s exist everywhere but spread wider
// between runs of the same code than BENCHMARK.json's bounds allow, and
// every metric there is one more that a noisy hour can fail.
var classMetrics = []metricSpec{
	{"op_p99_ms", "ms", lower, 0.25},
	{"count_p99_ms", "ms", lower, 0.25},
	{"select_p99_ms", "ms", lower, 0.25},
	{"sum_p50_ms", "ms", lower, 0.25},
	{"write_p50_ms", "ms", lower, 0.25},
	{"write_p99_ms", "ms", lower, 0.25},
	{"cold_first100_ms", "ms", lower, 0.25},
	{"wal_bytes_per_write", "B", lower, 0.02},
	// fail_share is 0 on a correct tree; -compare treats its bound as
	// absolute (0.001), not as a share.
	{"fail_share", "ratio", lower, 0.001},
}

// perLayer lists the traced run's metrics. A layer that is not on a
// workload's path reports 0 there: wal.* on the read-only workloads,
// shard.* where Shards is 1, compress.* where compression is off.
var perLayer = []metricSpec{
	// internal/compress: range kernels on the workload's own values.
	{"compress.plain.count_ns_per_val", "ns", lower, 0},
	{"compress.rle.count_ns_per_val", "ns", lower, 0},
	{"compress.dict.count_ns_per_val", "ns", lower, 0},
	{"compress.for.count_ns_per_val", "ns", lower, 0},
	{"compress.plain.select_ns_per_val", "ns", lower, 0},
	{"compress.rle.select_ns_per_val", "ns", lower, 0},
	{"compress.dict.select_ns_per_val", "ns", lower, 0},
	{"compress.for.select_ns_per_val", "ns", lower, 0},
	{"compress.plain.bytes_per_val", "B", lower, 0},
	{"compress.rle.bytes_per_val", "B", lower, 0},
	{"compress.dict.bytes_per_val", "B", lower, 0},
	{"compress.for.bytes_per_val", "B", lower, 0},
	// internal/core: the bare strategy.
	{"core.segmenter.select_us", "us", lower, 0},
	{"core.segmenter.count_us", "us", lower, 0},
	{"core.replicator.select_us", "us", lower, 0},
	{"core.replicator.count_us", "us", lower, 0},
	{"core.select_ns_per_row", "ns", lower, 0},
	{"core.scan_amp", "ratio", lower, 0},
	{"core.read_bytes_per_q", "B", lower, 0},
	{"core.write_bytes_per_q", "B", lower, 0},
	{"core.segments", "count", lower, 0},
	{"core.splits_per_round", "count", lower, 0},
	{"core.recodes_per_round", "count", lower, 0},
	{"core.converge_queries", "count", lower, 0},
	{"core.insert_us", "us", lower, 0},
	{"core.merge_ms", "ms", lower, 0},
	// internal/delta.
	{"delta.overlay_bytes_per_q", "B", lower, 0},
	{"delta.pending_bytes", "B", lower, 0},
	{"delta.merges", "count", higher, 0},
	// internal/shard.
	{"shard.select_us", "us", lower, 0},
	{"shard.insert_us", "us", lower, 0},
	{"shard.route_self_us", "us", lower, 0},
	// internal/result.
	{"result.flatten_ns_per_row", "ns", lower, 0},
	{"result.chunks_per_q", "count", lower, 0},
	// selforg.Column, the facade.
	{"facade.select_us", "us", lower, 0},
	{"facade.count_us", "us", lower, 0},
	{"facade.self_us", "us", lower, 0},
	{"facade.insert_mem_us", "us", lower, 0},
	{"facade.insert_durable_us", "us", lower, 0},
	{"facade.alloc_b_per_select", "B", lower, 0},
	// internal/wal.
	{"wal.frame_ns", "ns", lower, 0},
	{"wal.append_us", "us", lower, 0},
	{"wal.fsync_us", "us", lower, 0},
	{"wal.bytes_per_op", "B", lower, 0},
	// internal/durable.
	{"durable.commit_self_us", "us", lower, 0},
	{"durable.group_fanin", "ratio", higher, 0},
	{"durable.fsyncs_per_write", "ratio", lower, 0},
	{"durable.checkpoint_ms", "ms", lower, 0},
	{"durable.recover_ms", "ms", lower, 0},
	{"durable.write_errors", "count", lower, 0},
	// internal/sql, internal/plancache.
	{"sql.normalize_us", "us", lower, 0},
	{"plancache.get_ns", "ns", lower, 0},
	{"plancache.hit_share", "ratio", higher, 0},
	{"server.compile_cold_us", "us", lower, 0},
	// internal/server.
	{"server.exec_us", "us", lower, 0},
	{"server.exec_self_us", "us", lower, 0},
	{"server.exec_write_us", "us", lower, 0},
	{"server.encode_us", "us", lower, 0},
	{"server.encode_ns_per_row", "ns", lower, 0},
	{"server.alloc_b_per_op", "B", lower, 0},
	{"server.shed_share", "ratio", lower, 0},
	// net/http around the handler.
	{"http.handler_us", "us", lower, 0},
	{"http.handler_self_us", "us", lower, 0},
	{"http.roundtrip_us", "us", lower, 0},
	{"http.self_us", "us", lower, 0},
	// The harness itself.
	{"bench.trace_overhead_share", "ratio", lower, 0},
	{"bench.client_self_us", "us", lower, 0},
}

// benchmarkSpec is the content of BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// layerSpec is a per-layer metric as BENCHMARK.json spells it: no bound.
type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the measured window BENCHMARK.json asks the driver for.
const runSeconds = 24

func declaredSpec() benchmarkSpec {
	sp := benchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		sp.Workloads = append(sp.Workloads, workloadSpec{w.name, w.why})
	}
	for _, m := range perLayer {
		sp.PerLayer = append(sp.PerLayer, layerSpec{m.Name, m.Unit, m.Better})
	}
	return sp
}
