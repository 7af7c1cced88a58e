// Package sky is the §6.2 prototype substrate: a synthetic stand-in for
// the SkyServer 100 GB sample and its one-month query log, plus the
// experiment harness that reproduces Figures 10–16 and Table 2.
//
// The column of interest is the right ascension (ra), "a real data type,
// included in most spatial search queries". We synthesize an SDSS-like ra
// distribution (dense survey stripes over a sparse sky), scale it to the
// integer domain the adaptive strategies operate on, and time query
// streams under a memory-constrained buffer pool with a virtual disk
// clock. See DESIGN.md for the substitution rationale.
//
// Beyond the paper's serial runs, RunClients deals one workload's query
// stream across N clients of workload.Drive against a single shared
// column — the five multi-client experiments of cmd/skybench (concurrent,
// replicated-concurrent, mixed, sharded, sharded-mixed), each one
// declaration of the package's one table writer — exercising the
// snapshot-reader / single-writer machinery of internal/core under the
// pool's virtual clock. Every column is built by shard.Build from the
// scheme's shard.Spec.
package sky
