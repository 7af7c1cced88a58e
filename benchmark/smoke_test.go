package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// readBenchmarkJSON loads the contract file at the repository root.
func readBenchmarkJSON(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp benchmarkSpec
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestBenchmarkJSONMatchesProgram: BENCHMARK.json is what `-spec` prints,
// and it stays inside the limits its reader sets.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	got, want := readBenchmarkJSON(t), declaredSpec()
	if !reflect.DeepEqual(got, want) {
		g, _ := json.MarshalIndent(got, "", "  ")
		w, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json differs from the program's declaration; regenerate it with `go run . -spec`.\nfile:\n%s\nprogram:\n%s", g, w)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("%s name %q is malformed or used twice", kind, n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s %s: unit %q is malformed", kind, n, u)
		}
	}
	if len(want.Workloads) < 2 || len(want.Workloads) > 8 {
		t.Errorf("%d workloads", len(want.Workloads))
	}
	for _, w := range want.Workloads {
		check("workload", w.Name, "")
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range want.EndToEnd {
		check("end-to-end metric", m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == lower
			for _, o := range want.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(want.PerLayer) < 1 || len(want.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(want.PerLayer))
	}
	for _, m := range want.PerLayer {
		check("per-layer metric", m.Name, m.Unit)
	}
	if want.RunSeconds < 1 || want.RunSeconds > 60 {
		t.Errorf("run_seconds %d", want.RunSeconds)
	}
}

// TestSmoke runs all four workloads and their ladders at the quick scale
// and holds the output to BENCHMARK.json: every declared metric present,
// finite and in its declared unit, and none that is not declared.
func TestSmoke(t *testing.T) {
	sp := readBenchmarkJSON(t)
	dir := t.TempDir()
	units := func(specs ...[]metricSpec) map[string]string {
		m := map[string]string{}
		for _, list := range specs {
			for _, s := range list {
				m[s.Name] = s.Unit
			}
		}
		return m
	}
	e2eUnits := units(endToEnd)
	layerUnits := units(perLayer)
	hold := func(t *testing.T, out lastLine, declared map[string]string) {
		t.Helper()
		if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
		}
		for name, unit := range declared {
			m, ok := out.Metrics[name]
			switch {
			case !ok:
				t.Errorf("declared metric %s is missing", name)
			case m.Unit != unit:
				t.Errorf("%s: unit %q, declared %q", name, m.Unit, unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: value %v is not finite", name, m.Value)
			}
		}
		for name := range out.Metrics {
			if _, ok := declared[name]; !ok {
				t.Errorf("metric %s is printed but not declared in BENCHMARK.json", name)
			}
		}
	}
	for _, ws := range sp.Workloads {
		w := workloadByName(ws.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", ws.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			out, err := measure(w, &quickScale, 11, 0.4, 0, dir)
			if err != nil {
				t.Fatal(err)
			}
			hold(t, out, e2eUnits)
			for name, m := range out.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v: it must never be 0", name, m.Value)
				}
			}
			out, err = measure(w, &quickScale, 11, 0.4, 1, dir)
			if err != nil {
				t.Fatal(err)
			}
			hold(t, out, layerUnits)
			if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".jsonl")); err != nil {
				t.Errorf("traced run left no span file: %v", err)
			}
		})
	}
	left, _ := filepath.Glob(filepath.Join(dir, "wal-*"))
	if len(left) != 0 {
		t.Errorf("WAL directories left behind: %v", left)
	}
}
