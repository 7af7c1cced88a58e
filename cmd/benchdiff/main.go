// Command benchdiff is the benchmark-regression gate behind the
// bench-regression CI job (and the local `make bench-check`). It has two
// modes:
//
// Parse mode reads `go test -bench` output on stdin — either the raw
// text or the `-json` (test2json) event stream — aggregates repeated
// runs (-count N) of each benchmark by their minimum ns/op (the
// least-noise estimator), and writes a JSON result file. When the run
// used -benchmem, the B/op and allocs/op columns are captured too
// (aggregated by minimum, like ns/op):
//
//	go test -run '^$' -bench Smoke -benchtime 10x -count 3 -json ./... |
//	    benchdiff -parse -out BENCH_ci.json
//
// Compare mode reads two such files and fails (exit 1) when the
// geometric-mean slowdown of the benchmarks present in both exceeds the
// threshold, or when the geometric-mean allocs/op growth exceeds the
// alloc threshold (the alloc gate only engages for benchmarks whose
// baseline AND current runs both carry -benchmem data, so a baseline
// taken without it never trips it):
//
//	benchdiff -baseline BENCH_baseline.json -current BENCH_ci.json -threshold 0.25
//
// The geomean over the whole suite absorbs per-benchmark noise (a single
// noisy 30% outlier does not trip the gate) while a broad real
// regression does; benchmarks present in only one file are reported but
// never fail the gate. The checked-in BENCH_baseline.json is
// regenerated with `make bench-baseline` whenever an intentional
// performance change shifts the suite.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark's aggregated measurements. BytesPerOp and
// AllocsPerOp are nil when the run was not taken with -benchmem.
type Bench struct {
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// Result is the JSON schema of a parsed benchmark run.
type Result struct {
	// Benchmarks maps the benchmark name (GOMAXPROCS suffix stripped) to
	// its aggregated measurements.
	Benchmarks map[string]*Bench `json:"benchmarks"`
}

// benchLine matches one benchmark result line of `go test -bench`
// output, e.g. with -benchmem:
// "BenchmarkShardedWriters/shards=4-8   5   769232 ns/op   1024 B/op   17 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

// testEvent is the subset of the test2json event schema parse mode needs.
// Package keys the per-package output reassembly: `go test` prints a
// benchmark's name and its timing as separate writes ("BenchmarkX-8   "
// first, the counts after the run), which test2json forwards as separate
// Output events — so result lines must be reassembled up to the newline
// before matching.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

func main() {
	parse := flag.Bool("parse", false, "parse `go test -bench` output from stdin into -out")
	out := flag.String("out", "BENCH_ci.json", "output file for -parse")
	baseline := flag.String("baseline", "", "baseline JSON file (compare mode)")
	current := flag.String("current", "", "current JSON file (compare mode)")
	threshold := flag.Float64("threshold", 0.25, "maximum tolerated geomean slowdown (0.25 = 25%)")
	allocThreshold := flag.Float64("allocthreshold", 0.30, "maximum tolerated geomean allocs/op growth (0.30 = 30%); applies only to benchmarks with -benchmem data on both sides")
	minNs := flag.Float64("minns", 10_000, "exclude benchmarks whose baseline ns/op is below this floor (too fast to time reliably at -benchtime 10x)")
	flag.Parse()

	switch {
	case *parse:
		if err := runParse(*out); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
	case *baseline != "" && *current != "":
		ok, err := runCompare(*baseline, *current, *threshold, *allocThreshold, *minNs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "benchdiff: use -parse [-out F] or -baseline F -current F [-threshold T]")
		os.Exit(2)
	}
}

// sample is one benchmark result line's measurements.
type sample struct {
	ns, bytes, allocs float64
	hasMem            bool
}

// runParse aggregates stdin into outPath. Lines are accepted both raw
// and wrapped in test2json events, so the same binary serves
// `go test -bench ...` and `go test -bench ... -json` pipelines.
func runParse(outPath string) error {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	samples := make(map[string][]sample)
	record := func(line string) {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			return
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return
		}
		s := sample{ns: ns}
		if m[3] != "" {
			bpo, err1 := strconv.ParseFloat(m[3], 64)
			apo, err2 := strconv.ParseFloat(m[4], 64)
			if err1 == nil && err2 == nil {
				s.bytes, s.allocs, s.hasMem = bpo, apo, true
			}
		}
		samples[m[1]] = append(samples[m[1]], s)
	}
	// partial accumulates fragmented output per package until a newline
	// completes the benchmark result line.
	partial := make(map[string]string)
	for sc.Scan() {
		line := sc.Text()
		if len(line) > 0 && line[0] == '{' {
			var ev testEvent
			if err := json.Unmarshal([]byte(line), &ev); err == nil {
				if ev.Action != "output" {
					continue
				}
				buf := partial[ev.Package] + ev.Output
				for {
					nl := strings.IndexByte(buf, '\n')
					if nl < 0 {
						break
					}
					record(buf[:nl])
					buf = buf[nl+1:]
				}
				partial[ev.Package] = buf
				continue
			}
		}
		record(line)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for _, buf := range partial {
		record(buf)
	}
	if len(samples) == 0 {
		return fmt.Errorf("no benchmark results on stdin")
	}
	res := Result{Benchmarks: make(map[string]*Bench, len(samples))}
	for name, ss := range samples {
		b := &Bench{NsPerOp: ss[0].ns}
		for _, s := range ss[1:] {
			if s.ns < b.NsPerOp {
				b.NsPerOp = s.ns
			}
		}
		// Per-field minimum over the samples that carry memory stats;
		// a mixed stream (some packages with -benchmem, some without)
		// keeps whatever data exists.
		for _, s := range ss {
			if !s.hasMem {
				continue
			}
			if b.BytesPerOp == nil || s.bytes < *b.BytesPerOp {
				v := s.bytes
				b.BytesPerOp = &v
			}
			if b.AllocsPerOp == nil || s.allocs < *b.AllocsPerOp {
				v := s.allocs
				b.AllocsPerOp = &v
			}
		}
		res.Benchmarks[name] = b
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchdiff: wrote %d benchmarks to %s\n", len(res.Benchmarks), outPath)
	return nil
}

func load(path string) (Result, error) {
	var r Result
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Benchmarks) == 0 {
		return r, fmt.Errorf("%s: no benchmarks", path)
	}
	return r, nil
}

// runCompare prints the per-benchmark ratios and the geomean verdicts,
// returning false when the ns/op geomean slowdown exceeds threshold or
// the allocs/op geomean growth exceeds allocThreshold.
func runCompare(basePath, curPath string, threshold, allocThreshold, minNs float64) (bool, error) {
	base, err := load(basePath)
	if err != nil {
		return false, err
	}
	cur, err := load(curPath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name, b := range base.Benchmarks {
		if b.NsPerOp < minNs {
			fmt.Printf("%-60s baseline %.0f ns/op below -minns floor (ignored)\n", name, b.NsPerOp)
			continue
		}
		if _, ok := cur.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("no common benchmarks between %s and %s", basePath, curPath)
	}
	var logSum, allocLogSum float64
	allocN := 0
	fmt.Printf("%-60s %14s %14s %8s %10s\n", "benchmark", "baseline ns/op", "current ns/op", "ratio", "allocs")
	for _, name := range names {
		b, c := base.Benchmarks[name], cur.Benchmarks[name]
		ratio := c.NsPerOp / b.NsPerOp
		logSum += math.Log(ratio)
		flag := ""
		if ratio > 1+threshold {
			flag = "  !"
		}
		allocCol := "-"
		if b.AllocsPerOp != nil && c.AllocsPerOp != nil {
			// +1 smoothing keeps zero-alloc benchmarks finite and damps
			// the ratio of tiny counts (1 → 2 allocs is not a 2x story).
			ar := (*c.AllocsPerOp + 1) / (*b.AllocsPerOp + 1)
			allocLogSum += math.Log(ar)
			allocN++
			allocCol = fmt.Sprintf("%.0f→%.0f", *b.AllocsPerOp, *c.AllocsPerOp)
			if ar > 1+allocThreshold {
				flag += "  !allocs"
			}
		}
		fmt.Printf("%-60s %14.0f %14.0f %7.2fx %10s%s\n", name, b.NsPerOp, c.NsPerOp, ratio, allocCol, flag)
	}
	for name := range base.Benchmarks {
		if _, ok := cur.Benchmarks[name]; !ok {
			fmt.Printf("%-60s missing from current run (ignored)\n", name)
		}
	}
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Printf("%-60s new benchmark, no baseline (ignored)\n", name)
		}
	}
	ok := true
	geomean := math.Exp(logSum / float64(len(names)))
	fmt.Printf("\ngeomean ratio over %d benchmarks: %.3fx (threshold %.2fx)\n",
		len(names), geomean, 1+threshold)
	if geomean > 1+threshold {
		fmt.Printf("FAIL: geomean slowdown %.1f%% exceeds %.0f%%\n",
			(geomean-1)*100, threshold*100)
		ok = false
	}
	if allocN > 0 {
		allocGeomean := math.Exp(allocLogSum / float64(allocN))
		fmt.Printf("geomean allocs/op ratio over %d benchmarks: %.3fx (threshold %.2fx)\n",
			allocN, allocGeomean, 1+allocThreshold)
		if allocGeomean > 1+allocThreshold {
			fmt.Printf("FAIL: geomean allocs/op growth %.1f%% exceeds %.0f%%\n",
				(allocGeomean-1)*100, allocThreshold*100)
			ok = false
		}
	} else {
		fmt.Println("no common -benchmem data; alloc gate skipped")
	}
	if ok {
		fmt.Println("OK")
	}
	return ok, nil
}
