// Command benchmark is the repository's one end-to-end and per-layer
// benchmark: four workloads over HTTP SQL against internal/server, every
// answer checked against a reference model, and a traced run that times
// each layer of the stack from outside. README.md in this directory says
// why each workload exists and how to read the numbers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// provenance records where a report's numbers come from.
type provenance struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	Commit     string  `json:"git_commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Loop       string  `json:"loop"`
	Flush      string  `json:"flush_policy"`
	WALDir     string  `json:"wal_dir"`
	WALFS      string  `json:"wal_dir_filesystem"`
}

// report is what a run of the whole set writes, and what -compare reads.
type report struct {
	Provenance provenance              `json:"provenance"`
	EndToEnd   map[string]*e2eResult   `json:"end_to_end"`
	PerLayer   map[string]*layerResult `json:"per_layer,omitempty"`
}

// lastLine is the last line of standard output: exactly these keys.
type lastLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with its one-line JSON result (default: all four, then their traced runs)")
		seed         = flag.Int64("seed", 1, "seed of the data and of every statement stream")
		seconds      = flag.Float64("seconds", runSeconds, "length of the measured window of each workload")
		trace        = flag.Int("trace", 0, "with -workload: 0 = untraced end-to-end run, 1 = traced per-layer run")
		quick        = flag.Bool("quick", false, "smoke scale: small columns, one set-up, short ladder; for tests, not for numbers")
		outDir       = flag.String("dir", filepath.Join("benchmark", "out"), "directory for WAL files, traces and reports")
		compare      = flag.Bool("compare", false, "compare reports: -compare base.json new.json (each may be a comma-separated list of runs)")
		agree        = flag.Bool("agree", false, "run the whole set twice and compare the two reports")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json as this program declares it")
	)
	flag.Parse()
	// The sandbox has two cores; pin the scheduler so that a larger host
	// measures the same configuration.
	runtime.GOMAXPROCS(clients)
	sc := &fullScale
	if *quick {
		sc = &quickScale
	}
	if !*spec && !*compare {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	switch {
	case *spec:
		b, _ := json.MarshalIndent(declaredSpec(), "", "  ")
		fmt.Println(string(b))
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two report files"))
		}
		a, err := readReports(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readReports(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !printComparison(os.Stdout, flag.Arg(0), flag.Arg(1), compareReports(a, b)) {
			os.Exit(1)
		}
	case *agree:
		var reps [2]*report
		for i := range reps {
			rep, ok := runAll(sc, *seed, *seconds, *outDir, false)
			if !ok {
				os.Exit(1)
			}
			reps[i] = rep
			writeJSON(filepath.Join(*outDir, fmt.Sprintf("agree-%d.json", i+1)), rep)
		}
		if !printComparison(os.Stdout, "first", "second", compareReports(reps[:1], reps[1:])) {
			os.Exit(1)
		}
	case *workloadName == "":
		rep, ok := runAll(sc, *seed, *seconds, *outDir, true)
		path := filepath.Join(*outDir, "report.json")
		writeJSON(path, rep)
		fmt.Println("report:", path)
		if !ok {
			os.Exit(1)
		}
	default:
		w := workloadByName(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		os.Exit(runOne(w, sc, *seed, *seconds, *trace, *outDir))
	}
}

// runOne is what the driver calls: one workload, traced or not, ending
// with the one-line result.
func runOne(w *workloadDef, sc *scale, seed int64, seconds float64, trace int, outDir string) int {
	printProvenance(newProvenance(sc, seed, seconds, outDir))
	out, err := measure(w, sc, seed, seconds, trace, outDir)
	if err != nil {
		fatal(err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	return exitCode(out.Correct)
}

// exitCode is non-zero for a run whose outputs were wrong or which was
// invalid: the result line is printed all the same, with correct false.
func exitCode(correct bool) int {
	if !correct {
		return 1
	}
	return 0
}

// measure runs one workload, prints every metric it measured, and returns
// the result line: of the untraced run exactly the declared end-to-end
// metrics, of the traced run exactly the declared per-layer ones.
func measure(w *workloadDef, sc *scale, seed int64, seconds float64, trace int, outDir string) (lastLine, error) {
	if trace != 0 {
		res, err := runLadder(w, sc, seed, outDir)
		if err != nil {
			return lastLine{}, err
		}
		printLayers(res)
		return lastLine{res.Correct, max(res.Attempted, 1), res.Failed, res.Metrics}, nil
	}
	res, err := runE2E(w, sc, seed, seconds, outDir)
	if err != nil {
		return lastLine{}, err
	}
	printE2E(res)
	out := lastLine{res.Correct, max(res.Attempted, 1), res.Failed, map[string]metric{}}
	for _, m := range endToEnd {
		v, ok := res.Metrics[m.Name]
		if !ok {
			out.Correct = false
			fmt.Printf("%-12s problem: no %s\n", w.name, m.Name)
		}
		out.Metrics[m.Name] = metric{v.Value, m.Unit}
	}
	return out, nil
}

// runAll runs every workload untraced and, with layers set, traced.
func runAll(sc *scale, seed int64, seconds float64, outDir string, layers bool) (*report, bool) {
	rep := &report{Provenance: newProvenance(sc, seed, seconds, outDir),
		EndToEnd: map[string]*e2eResult{}, PerLayer: map[string]*layerResult{}}
	ok := true
	for _, w := range workloads {
		fmt.Printf("== %s: %s\n", w.name, w.why)
		res, err := runE2E(w, sc, seed, seconds, outDir)
		if err != nil {
			fatal(err)
		}
		printE2E(res)
		rep.EndToEnd[w.name] = res
		ok = ok && res.Correct
	}
	for _, w := range workloads {
		if !layers {
			break
		}
		fmt.Printf("== %s, traced\n", w.name)
		res, err := runLadder(w, sc, seed, outDir)
		if err != nil {
			fatal(err)
		}
		printLayers(res)
		rep.PerLayer[w.name] = res
		ok = ok && res.Correct
	}
	printProvenance(rep.Provenance)
	return rep, ok
}

func printE2E(res *e2eResult) {
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Printf("%-12s %-22s %16.6g %-5s n=%d\n", res.Workload, name, m.Value, m.Unit, res.Samples[name])
	}
	for _, k := range sortedKeys(res.Notes) {
		fmt.Printf("%-12s note %-17s %16.6g\n", res.Workload, k, res.Notes[k])
	}
	fmt.Printf("%-12s window %.3fs, %d attempted, %d failed\n", res.Workload, res.Window, res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Printf("%-12s problem: %s\n", res.Workload, p)
	}
}

func printLayers(res *layerResult) {
	for _, m := range perLayer { // declaration order groups the layers
		v := res.Metrics[m.Name]
		fmt.Printf("%-12s %-34s %16.6g %s\n", res.Workload, m.Name, v.Value, v.Unit)
	}
	for _, k := range sortedKeys(res.Notes) {
		fmt.Printf("%-12s note %-29s %16.6g\n", res.Workload, k, res.Notes[k])
	}
	fmt.Printf("%-12s traced: %d attempted, %d failed\n", res.Workload, res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Printf("%-12s problem: %s\n", res.Workload, p)
	}
}

// sortedKeys returns the keys of m in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func newProvenance(sc *scale, seed int64, seconds float64, outDir string) provenance {
	return provenance{
		Seed: seed, Seconds: seconds, Quick: sc.quick,
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    clients,
		Loop:       fmt.Sprintf("closed, %d clients on %d keep-alive connections, one process with the server", clients, clients),
		Flush:      "mixed_rw: fsync every commit group; the other workloads keep no log",
		WALDir:     outDir,
		WALFS:      fsType(outDir),
	}
}

func printProvenance(p provenance) {
	fmt.Printf("provenance: seed=%d seconds=%g quick=%v commit=%s %s nproc=%d GOMAXPROCS=%d\n",
		p.Seed, p.Seconds, p.Quick, p.Commit, p.GoVersion, p.NProc, p.GOMAXPROCS)
	fmt.Printf("provenance: loop=%q flush=%q wal_dir=%s (%s)\n", p.Loop, p.Flush, p.WALDir, p.WALFS)
}

// gitCommit asks git for HEAD; a checkout that is not a repository (the
// driver's) has none.
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir, by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func writeJSON(path string, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
