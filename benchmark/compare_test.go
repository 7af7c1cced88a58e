package main

import (
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lat := metricSpec{"select_p50_ms", "ms", lower, 0.10}
	tput := metricSpec{"ops_per_s", "1/s", higher, 0.10}
	fail := metricSpec{"fail_share", "ratio", lower, 0.001}
	tests := []struct {
		name       string
		m          metricSpec
		base, cand []float64
		absolute   bool
		want       string
		wantRatio  float64
	}{
		{"latency within the bound", lat, []float64{1.00}, []float64{1.08}, false, verdictOK, 1.08},
		{"latency beyond the bound", lat, []float64{1.00}, []float64{1.12}, false, verdictWorse, 1.12},
		{"latency better is ok", lat, []float64{1.00}, []float64{0.50}, false, verdictOK, 0.50},
		{"throughput drop beyond the bound", tput, []float64{1000}, []float64{880}, false, verdictWorse, 0.88},
		{"throughput drop within the bound", tput, []float64{1000}, []float64{950}, false, verdictOK, 0.95},
		{"throughput gain is ok", tput, []float64{1000}, []float64{2000}, false, verdictOK, 2},
		{"medians of several runs decide", lat, []float64{1.00, 1.01, 0.99}, []float64{1.20, 1.21, 1.19}, false, verdictWorse, 1.2},
		{"base runs spread wider than the bound", lat, []float64{1.00, 1.30, 0.90}, []float64{1.05, 1.06, 1.04}, false, verdictUnresolved, 1.05},
		{"new runs spread wider than the bound", lat, []float64{1.00, 1.01, 0.99}, []float64{1.5, 1.0, 2.0}, false, verdictUnresolved, 1.5},
		{"a side without the metric", lat, nil, []float64{1}, false, verdictUnresolved, 0},
		{"zero base cannot give a share", lat, []float64{0}, []float64{1}, false, verdictUnresolved, 0},
		{"fail share: absolute bound holds", fail, []float64{0}, []float64{0.0005}, true, verdictOK, 0},
		{"fail share: absolute bound broken", fail, []float64{0}, []float64{0.002}, true, verdictWorse, 0},
	}
	for _, tc := range tests {
		r := verdict(tc.m, tc.base, tc.cand, tc.absolute)
		if r.Verdict != tc.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", tc.name, r.Verdict, tc.want, r)
		}
		if tc.wantRatio != 0 && (r.Ratio < tc.wantRatio-1e-9 || r.Ratio > tc.wantRatio+1e-9) {
			t.Errorf("%s: ratio %g, want %g (new over base)", tc.name, r.Ratio, tc.wantRatio)
		}
	}
}

func TestSpread(t *testing.T) {
	if s := spread([]float64{1}, false); s != -1 {
		t.Errorf("one run: spread %g, want -1 (unknown)", s)
	}
	if s := spread([]float64{0.9, 1.0, 1.2}, false); s < 0.299 || s > 0.301 {
		t.Errorf("three runs: spread %g, want the range over the median, 0.3", s)
	}
	// Ten runs: the distance between the quartiles, as the driver takes it.
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if s := spread(ten, false); s < 0.999 || s > 1.001 {
		t.Errorf("ten runs: spread %g, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestCompareReports(t *testing.T) {
	rep := func(ops, sel, write float64, correct bool) *report {
		return &report{EndToEnd: map[string]*e2eResult{
			"mixed_rw": {Workload: "mixed_rw", Correct: correct, Metrics: map[string]metric{
				"ops_per_s":     {ops, "1/s"},
				"select_p50_ms": {sel, "ms"},
				"write_p50_ms":  {write, "ms"},
				"fail_share":    {0, "ratio"},
			}},
			"serve_hot": {Workload: "serve_hot", Correct: true, Metrics: map[string]metric{
				"ops_per_s":  {10000, "1/s"},
				"fail_share": {0, "ratio"},
			}},
		}}
	}
	rows := compareReports([]*report{rep(3000, 0.2, 0.5, true)}, []*report{rep(2000, 0.2, 0.7, true)})
	got := map[string]string{}
	for _, r := range rows {
		got[r.Workload+"/"+r.Metric] = r.Verdict
	}
	want := map[string]string{
		"mixed_rw/ops_per_s":     verdictWorse,
		"mixed_rw/select_p50_ms": verdictOK,
		"mixed_rw/write_p50_ms":  verdictWorse, // a class metric only this workload has
		"mixed_rw/fail_share":    verdictOK,
		"serve_hot/ops_per_s":    verdictOK,
		"serve_hot/fail_share":   verdictOK,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: verdict %q, want %q", k, got[k], v)
		}
	}
	if _, ok := got["serve_hot/write_p50_ms"]; ok {
		t.Error("serve_hot issues no writes and must have no write row")
	}
	var b strings.Builder
	if printComparison(&b, "a", "b", rows) {
		t.Error("a comparison with a worse row must report failure")
	}
	if !strings.Contains(b.String(), "of base") || !strings.Contains(b.String(), "ratio = new/base") {
		t.Errorf("every ratio must name its base:\n%s", b.String())
	}
	// A run that was not correct contributes no timings: the pair is
	// unresolved, not silently compared.
	rows = compareReports([]*report{rep(3000, 0.2, 0.5, true)}, []*report{rep(3000, 0.2, 0.5, false)})
	for _, r := range rows {
		if r.Workload == "mixed_rw" && r.Metric == "ops_per_s" && r.Verdict != verdictUnresolved {
			t.Errorf("incorrect run compared as %s", r.Verdict)
		}
	}
}
