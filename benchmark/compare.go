package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Comparison of two sides, each one or more reports of the whole set.
// `-compare base.json new.json` takes one report a side;
// `-compare b1.json,b2.json,b3.json n1.json,n2.json,n3.json` takes
// several, compares medians and can then tell a difference from noise.

const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// row is one (workload, end-to-end metric) pair of a comparison.
type row struct {
	Workload, Metric string
	Unit             string
	Base, New        float64 // medians of each side's runs
	Ratio            float64 // New / Base
	Bound            float64
	Spread           float64 // widest run-to-run spread of either side as a share of its median; -1 = one run a side
	Verdict          string
}

// verdict judges one metric. base and cand hold the metric's value in
// each run of the two sides. The medians differ by more than the bound in
// the metric's bad direction: worse. Either side's own runs spread wider
// than the bound: unresolved, because then a change of the bound's size
// cannot be told from noise. A side without the metric: unresolved.
// absolute makes the bound a difference of values instead of a share of
// the base (fail_share, whose base is 0).
func verdict(m metricSpec, base, cand []float64, absolute bool) row {
	r := row{Metric: m.Name, Unit: m.Unit, Bound: m.Bound, Spread: -1, Verdict: verdictUnresolved}
	if len(base) == 0 || len(cand) == 0 {
		return r
	}
	r.Base, r.New = median(base), median(cand)
	r.Ratio = ratio(r.New, r.Base)
	worsening := r.New - r.Base
	if m.Better == higher {
		worsening = -worsening
	}
	if !absolute {
		if r.Base == 0 {
			return r
		}
		worsening /= r.Base
	}
	for _, side := range [][]float64{base, cand} {
		if s := spread(side, absolute); s > r.Spread {
			r.Spread = s
		}
	}
	switch {
	case r.Spread > m.Bound:
		r.Verdict = verdictUnresolved
	case worsening > m.Bound:
		r.Verdict = verdictWorse
	default:
		r.Verdict = verdictOK
	}
	return r
}

// spread is the run-to-run spread of one side: the distance between the
// quartiles with four runs or more, the whole range with two or three,
// unknown (-1) with one; as a share of the median unless absolute.
func spread(vals []float64, absolute bool) float64 {
	if len(vals) < 2 {
		return -1
	}
	lo, hi := quartiles(vals)
	if len(vals) < 4 {
		lo, hi = vals[0], vals[0]
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if absolute {
		return hi - lo
	}
	return ratio(hi-lo, median(vals))
}

// compareReports builds the rows of base against cand: every end-to-end
// metric either side reports, per workload.
func compareReports(base, cand []*report) []row {
	var rows []row
	specs := append(append([]metricSpec(nil), endToEnd...), classMetrics...)
	for _, w := range workloads {
		for _, m := range specs {
			b, c := valuesOf(base, w.name, m.Name), valuesOf(cand, w.name, m.Name)
			if len(b) == 0 && len(c) == 0 {
				continue // a class this workload does not issue
			}
			r := verdict(m, b, c, m.Name == "fail_share")
			r.Workload = w.name
			rows = append(rows, r)
		}
	}
	return rows
}

// valuesOf collects a metric over the correct runs of one side.
func valuesOf(reps []*report, workload, name string) []float64 {
	var vals []float64
	for _, rep := range reps {
		res := rep.EndToEnd[workload]
		if res == nil {
			continue
		}
		if m, ok := res.Metrics[name]; ok && (res.Correct || name == "fail_share") {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// printComparison writes one row per pair and reports whether none is
// worse.
func printComparison(w io.Writer, baseName, candName string, rows []row) bool {
	fmt.Fprintf(w, "base = %s, new = %s; ratio = new/base\n", baseName, candName)
	fmt.Fprintf(w, "%-11s %-20s %14s %14s %-6s %-16s %7s %8s  %s\n",
		"workload", "metric", "base", "new", "unit", "ratio", "bound", "spread", "verdict")
	good := true
	for _, r := range rows {
		sp := "1 run"
		if r.Spread >= 0 {
			sp = fmt.Sprintf("%.3f", r.Spread)
		}
		fmt.Fprintf(w, "%-11s %-20s %14.6g %14.6g %-6s %-16s %7.3f %8s  %s\n",
			r.Workload, r.Metric, r.Base, r.New, r.Unit, fmt.Sprintf("%.3fx of base", r.Ratio), r.Bound, sp, r.Verdict)
		good = good && r.Verdict != verdictWorse
	}
	return good
}

// readReports reads a comma-separated list of report files.
func readReports(list string) ([]*report, error) {
	var reps []*report
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rep := &report{}
		if err := json.Unmarshal(b, rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}
