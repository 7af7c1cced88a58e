# Developer entry points. CI runs the same targets, so a green `make ci`
# locally predicts a green pipeline.

GO ?= go

# The benchmark smoke set tracked by the bench-regression gate: fast,
# deterministic-workload micro-benchmarks of hot paths that no rung of
# the benchmark/ ladder measures (converged scans, compression ablation,
# delta writes, merge-back, sharded writers, observability overhead).
# What a ladder rung or end-to-end metric covers — the query service
# tier, the codec kernels, WAL append and group commit — is measured by
# `bash benchmark/run.sh`, not here. CI's smoke step and the regression
# gate both read this one list (bench-smoke, bench-ci).
BENCH_SET  := AblationCompressedScan|AblationCompressedCount|LargeScanSerial|LargeScanParallel4|DeltaInsert|DeltaOverlayScan|DeltaMergeBack|Sharded|ShardedScanAssembly|ScanObsOn|ScanObsOff|OverlayScanSortedRuns
BENCH_PKGS := .
# -benchmem rides along so the regression gate sees B/op and allocs/op
# next to ns/op (benchdiff gates on the allocs geomean too).
BENCH_ARGS := -run '^$$' -bench '$(BENCH_SET)' -benchtime 10x -count 3 -benchmem

# The concurrency-sensitive benchmarks (chunked parallel scans, sharded
# scans/writers, concurrent scanners) run at GOMAXPROCS 1, 2 and 4 by
# bench-multicore, so scaling is measured rather than assumed.
MULTICORE_SET := LargeScanParallel|ShardedScan|ShardedWriters|ShardedMixedWorkload|ConcurrentScanners

.PHONY: build test race lint deps loc fuzz-smoke bench-module bench-smoke bench-ci bench-check bench-baseline bench-multicore ci

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

lint:
	gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$'
	$(GO) vet ./...

# deps guards the engine boundary: the query service links one engine,
# the facade — not the paper's MAL stack (bat, bpm, mal, opt,
# sql/malgen), which only the figure harnesses use — the engine's own
# packages reach none of that stack, and the SQL front end imports
# nothing of the module.
deps:
	@bad=$$($(GO) list -deps ./cmd/soserve ./internal/server \
		| grep -E '^selforg/internal/(bat|mal|opt|bpm|sql/malgen)$$'); \
	if [ -n "$$bad" ]; then echo "soserve links the MAL stack:" $$bad; exit 1; fi
	@bad=$$($(GO) list -deps ./internal/compress ./internal/segment ./internal/core ./internal/shard \
		| grep -E '^selforg/internal/(bat|bpm|mal|opt)$$'); \
	if [ -n "$$bad" ]; then echo "the engine links the MAL stack:" $$bad; exit 1; fi
	@bad=$$($(GO) list -deps ./internal/sql | grep -E '^selforg(/|$$)' \
		| grep -v '^selforg/internal/sql$$'); \
	if [ -n "$$bad" ]; then echo "internal/sql imports" $$bad; exit 1; fi

# loc prints the non-test Go lines per package and in total (benchmark/,
# its own module, excluded) — the figure a simplicity PR's "net-negative
# LOC" refers to. Run it at the parent commit and at the change.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*' -print0 \
		| xargs -0 wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# fuzz-smoke runs the fuzz targets briefly (go's -fuzz accepts one
# target per invocation). New crashers land under the package's
# testdata/fuzz/ — commit them as regression seeds.
fuzz-smoke:
	$(GO) test ./internal/sql/ -run '^$$' -fuzz 'FuzzParse$$' -fuzztime 30s
	$(GO) test ./internal/sql/ -run '^$$' -fuzz FuzzParseStmt -fuzztime 30s
	$(GO) test ./internal/sql/ -run '^$$' -fuzz FuzzNormalize -fuzztime 30s
	$(GO) test ./internal/wal/ -run '^$$' -fuzz FuzzWALReplay -fuzztime 30s
	$(GO) test ./internal/wal/ -run '^$$' -fuzz FuzzCheckpointRead -fuzztime 30s
	$(GO) test ./internal/compress/ -run '^$$' -fuzz FuzzCodecRange -fuzztime 30s
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzWireEnvelope -fuzztime 30s
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzWireInts -fuzztime 30s
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzPlanCache -fuzztime 30s
	$(GO) test ./internal/segment/ -run '^$$' -fuzz FuzzSplit -fuzztime 30s

# bench-module compiles, vets and tests benchmark/ — its own Go module,
# which the root ./... patterns never reach — so an internal signature
# change that breaks the end-to-end benchmark fails here first.
bench-module:
	cd benchmark && $(GO) build ./... && $(GO) vet ./... && $(GO) test ./...

# bench-smoke runs every BENCH_SET benchmark once at a fixed iteration
# count: "do they still run", not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_SET)' -benchtime 10x -benchmem $(BENCH_PKGS)

# bench-ci runs the smoke benchmarks and emits BENCH_ci.json. The raw
# stream is staged in a file (not piped) so benchdiff's compile and run
# never compete with the benchmarks for CPU.
bench-ci:
	$(GO) build -o /tmp/benchdiff ./cmd/benchdiff
	$(GO) test $(BENCH_ARGS) -json $(BENCH_PKGS) > /tmp/bench_raw.jsonl
	/tmp/benchdiff -parse -out BENCH_ci.json < /tmp/bench_raw.jsonl

# bench-check is the local perf-regression gate: >25% geomean slowdown
# against the checked-in baseline fails. (CI pull requests do better:
# they benchmark the merge-base in the same job on the same host and
# diff head-vs-base, so the checked-in baseline's machine-relativity
# only affects direct pushes and local runs.)
bench-check: bench-ci
	/tmp/benchdiff -baseline BENCH_baseline.json -current BENCH_ci.json -threshold 0.25

# bench-multicore measures per-core scaling: each concurrency-sensitive
# benchmark runs pinned to GOMAXPROCS 1, 2 and 4, and the ns/op ratio
# between the -cpu rows is the observed speedup. Rows above the host's
# core count measure goroutine-scheduling overhead, not speedup — CI's
# multi-vCPU runners produce the real scaling numbers (recorded in
# BENCH.md).
bench-multicore:
	$(GO) test -run '^$$' -bench '$(MULTICORE_SET)' -benchtime 10x -count 1 -cpu 1,2,4 -benchmem .

# bench-baseline regenerates the checked-in baseline after an intentional
# performance change (commit the resulting BENCH_baseline.json).
bench-baseline:
	$(GO) build -o /tmp/benchdiff ./cmd/benchdiff
	$(GO) test $(BENCH_ARGS) -json $(BENCH_PKGS) > /tmp/bench_raw.jsonl
	/tmp/benchdiff -parse -out BENCH_baseline.json < /tmp/bench_raw.jsonl

ci: build lint deps test race bench-module bench-check
