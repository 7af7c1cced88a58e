package main

import (
	"math/rand"

	"selforg"
	"selforg/internal/domain"
	"selforg/internal/server"
	"selforg/internal/sim"
	"selforg/internal/workload"
)

// clients is the number of closed-loop clients, each on its own
// keep-alive connection. The sandbox has two cores; GOMAXPROCS is pinned
// to the same number, and server and generator share one process.
const clients = 2

// scale sizes a run. The full scale is what BENCHMARK.json measures; the
// quick scale is the smoke test's.
type scale struct {
	quick      bool
	warmPasses int // cap on convergence passes
	setups     int // set-ups per run; setup_s is their median
	kernelVals int // values per codec kernel input
	perPhase   int // adapt_cold: statements per client per phase (4 phases a round)
	minMerges  int // mixed_rw: merge-backs per shard for a valid run
}

var (
	fullScale  = scale{warmPasses: 8, setups: 3, kernelVals: 1 << 18, perPhase: 125, minMerges: 5}
	quickScale = scale{quick: true, warmPasses: 4, setups: 1, kernelVals: 1 << 12, perPhase: 25}
)

// workloadDef is everything that distinguishes one workload.
type workloadDef struct {
	name string
	why  string
	// extent, size and options of the served column.
	extent  selforg.Interval
	fullN   int
	quickN  int
	options selforg.Options
	maxRows int
	// warmPool is the number of statements in one convergence pass: enough
	// to touch every part of the column the traffic reaches.
	warmPool int
	// ladderN is the number of statements in the traced sample: 2000 where
	// a statement costs microseconds, fewer where it costs milliseconds,
	// so that the traced run fits the same time as an untraced one.
	ladderN int
	// classes lists the statement classes the workload issues.
	classes []class
	durable bool
	// perRound marks adapt_cold: a fresh server per round, no warm-up.
	perRound bool
	// newGen builds the statement stream of one client; stream labels the
	// use (measured window, warm-up, traced sample) so that each draws its
	// own constants.
	newGen func(w *workloadDef, sc *scale, seed int64, stream string, client int) generator
}

func (w *workloadDef) dom() domain.Range { return domain.NewRange(w.extent.Lo, w.extent.Hi) }

func (w *workloadDef) n(sc *scale) int {
	if sc.quick {
		return w.quickN
	}
	return w.fullN
}

// sample is the traced sample's length at the given scale.
func (w *workloadDef) sample(sc *scale) int {
	if sc.quick {
		return w.ladderN / 20
	}
	return w.ladderN
}

// pool is the convergence pass length at the given scale.
func (w *workloadDef) pool(sc *scale) int {
	if sc.quick {
		return w.warmPool / 10
	}
	return w.warmPool
}

// dataSeed is the server.Config seed of a run: the column's values are
// sim.GenerateColumn(n, dom, dataSeed), which the oracle regenerates.
func (w *workloadDef) dataSeed(seed int64) int64 { return subSeed(seed, w.name, "data", 0) }

func (w *workloadDef) values(seed int64, n int) []int64 {
	return sim.GenerateColumn(n, w.dom(), w.dataSeed(seed))
}

// config is the server.Config of one instance. dir is the WAL directory
// of a durable workload.
func (w *workloadDef) config(seed int64, n int, dir string) server.Config {
	o := w.options
	// One observer per instance keeps instances from sharing counters.
	obs := selforg.NewObserver()
	o.Observability.Observer = obs
	if w.durable {
		o.Durability = selforg.Durability{Dir: dir, Fsync: true}
	}
	return server.Config{
		Extent:   w.extent,
		N:        n,
		Seed:     w.dataSeed(seed),
		Options:  o,
		MaxRows:  w.maxRows,
		Workers:  clients,
		Observer: obs,
	}
}

const (
	selServeHot  = 0.0002 // ~400 of 2M rows
	selScanCount = 0.20
	selScanSum   = 0.05  // ~200K of 4M values decoded and added
	selScanRows  = 0.005 // ~20K of 4M rows delivered
	selMixedRows = 0.0002
	selAdapt     = 0.01
)

var workloads = []*workloadDef{
	{
		name:     "serve_hot",
		why:      "tiny Zipf-placed ranges on a converged uncompressed column: normalize, plan cache, exec, JSON and net/http do the work; codec kernels and WAL do none",
		extent:   selforg.Interval{Lo: 0, Hi: 1<<31 - 1},
		fullN:    2_000_000,
		quickN:   100_000,
		options:  selforg.Options{Strategy: selforg.Replication, Model: selforg.APM},
		maxRows:  1000,
		warmPool: 4000,
		ladderN:  2000,
		classes:  []class{clsCount, clsSelect},
		newGen: func(w *workloadDef, sc *scale, seed int64, stream string, client int) generator {
			width := workload.WidthForSelectivity(w.dom(), selServeHot)
			zipf := func(label string) workload.Generator {
				return workload.NewZipf(w.dom(), width, workload.ZipfBuckets, workload.ZipfS, workload.ZipfV,
					subSeed(seed, w.name, stream+label, client))
			}
			return newMix(subSeed(seed, w.name, stream+"/mix", client),
				[]class{clsCount, clsSelect}, []float64{50, 50},
				[]workload.Generator{zipf("/count"), zipf("/select")})
		},
	},
	{
		name:   "scan_wide",
		why:    "wide uniform ranges over 4M duplicate-heavy values in encoded segments: codec kernels and the segmenter dominate COUNT/SUM, result rope and JSON streaming dominate SELECT; the front end is negligible",
		extent: selforg.Interval{Lo: 0, Hi: 1<<20 - 1},
		fullN:  4_000_000,
		quickN: 200_000,
		options: selforg.Options{Strategy: selforg.Segmentation, Model: selforg.APM,
			APMMin: 256 << 10, APMMax: 1 << 20, Compression: selforg.CompressionAuto},
		maxRows:  100_000,
		warmPool: 100,
		ladderN:  400,
		classes:  []class{clsCount, clsSum, clsSelect},
		newGen: func(w *workloadDef, sc *scale, seed int64, stream string, client int) generator {
			uni := func(sel float64, label string) workload.Generator {
				return workload.NewUniform(w.dom(), workload.WidthForSelectivity(w.dom(), sel),
					subSeed(seed, w.name, stream+label, client))
			}
			return newMix(subSeed(seed, w.name, stream+"/mix", client),
				[]class{clsCount, clsSum, clsSelect}, []float64{40, 20, 40},
				[]workload.Generator{uni(selScanCount, "/count"), uni(selScanSum, "/sum"), uni(selScanRows, "/select")})
		},
	},
	{
		name:   "mixed_rw",
		why:    "half writes, half reads on a durable 4-shard compressed column: WAL fsync, group commit, delta overlay, merge-back re-encoding and checkpoints do the work beside the reads",
		extent: selforg.Interval{Lo: 0, Hi: 1<<30 - 1},
		fullN:  1_000_000,
		quickN: 100_000,
		options: selforg.Options{Strategy: selforg.Segmentation, Model: selforg.APM,
			Compression: selforg.CompressionAuto, Shards: 4, DeltaMaxBytes: mixedDeltaMaxBytes},
		maxRows:  1000,
		warmPool: 1000,
		ladderN:  2000,
		classes:  []class{clsCount, clsSelect, clsInsert, clsUpdate, clsDelete},
		durable:  true,
		newGen: func(w *workloadDef, sc *scale, seed int64, stream string, client int) generator {
			return newRWGen(subSeed(seed, w.name, stream, client), w.dom(), int64(client&1),
				workload.WidthForSelectivity(w.dom(), selMixedRows))
		},
	},
	{
		name:     "adapt_cold",
		why:      "the paper's experiment: each round starts a fresh unorganized column, so the first queries of a shifting hot-spot sequence pay full scans, splits, materialization, recodes and cold plan compiles",
		extent:   selforg.Interval{Lo: 0, Hi: 1<<30 - 1},
		fullN:    1_000_000,
		quickN:   100_000,
		options:  selforg.Options{Strategy: selforg.Segmentation, Model: selforg.APM, Compression: selforg.CompressionAuto},
		maxRows:  1000,
		ladderN:  2000,
		classes:  []class{clsCount, clsSelect},
		perRound: true,
		newGen: func(w *workloadDef, sc *scale, seed int64, stream string, client int) generator {
			return &adaptGen{
				dom: w.dom(), name: w.name, seed: seed, stream: stream, client: client,
				perPhase: sc.perPhase,
				width:    workload.WidthForSelectivity(w.dom(), selAdapt),
				mix:      rand.New(rand.NewSource(subSeed(seed, w.name, stream+"/mix", client))),
			}
		},
	},
}

// mixedDeltaMaxBytes is mixed_rw's merge-back trigger. It is far below
// the 64 KB default so that every shard merges back, re-encodes and
// checkpoints several times within one measured window.
const mixedDeltaMaxBytes = 4 << 10

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
