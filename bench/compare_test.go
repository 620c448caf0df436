package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// pairs returns n parent values around base and n change values scaled
// by factor, each with a small deterministic wobble of ±wobble.
func pairs(n int, base, factor, wobble float64) (a, b []float64) {
	for i := 0; i < n; i++ {
		w := wobble * float64(i%5-2) / 2
		a = append(a, base*(1+w))
		b = append(b, base*factor*(1-w))
	}
	return a, b
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name       string
		factor     float64
		wobble     float64
		n          int
		alternated bool
		failedB    int
		want       string
	}{
		{"faster beyond the spread", 0.8, 0.01, 10, true, 0, "improved"},
		{"slower beyond the bound", 1.2, 0.01, 10, true, 0, "regressed"},
		{"within the bound", 1.03, 0.01, 10, true, 0, "unchanged"},
		{"too few pairs", 0.8, 0.01, 9, true, 0, "unresolved"},
		{"not alternated", 0.8, 0.01, 10, false, 0, "unresolved"},
		{"spread wider than the bound", 1.05, 0.3, 10, true, 0, "unresolved"},
		{"a gain with more failures does not count", 0.8, 0.01, 10, true, 1, "unchanged"},
	} {
		a, b := pairs(c.n, 2.0, c.factor, c.wobble)
		v := judge(a, b, 0.1, true, c.alternated, 0, c.failedB)
		if v.Result != c.want {
			t.Errorf("%s: verdict %s (%s), want %s", c.name, v.Result, v.Why, c.want)
		}
	}
}

func TestJudgeAllBetterDespiteSpread(t *testing.T) {
	// Spread wider than the bound, but every change run beats every
	// parent run: not unresolved.
	a := []float64{10, 12, 14, 16, 18, 20, 22, 24, 26, 28}
	b := []float64{5, 5.5, 6, 6.5, 7, 7.5, 8, 8.5, 9, 9.5}
	if v := judge(a, b, 0.1, true, true, 0, 0); v.Result == "unresolved" {
		t.Errorf("verdict %s (%s), want a resolved verdict", v.Result, v.Why)
	}
}

func TestJudgeHigherIsBetter(t *testing.T) {
	a, b := pairs(10, 100, 0.8, 0.01)
	if v := judge(a, b, 0.1, false, true, 0, 0); v.Result != "regressed" {
		t.Errorf("a 20%% drop of a higher-is-better metric: verdict %s, want regressed", v.Result)
	}
}

// TestCompareRunsPairsByStartTime writes alternating results files for
// two sides and checks that compare pairs them and judges every
// end-to-end metric BENCHMARK.json names.
func TestCompareRunsPairsByStartTime(t *testing.T) {
	def, err := readBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		for side, dir := range []string{dirA, dirB} {
			first := i%2 == side // alternate which side runs first
			start := t0.Add(time.Duration(2*i) * time.Minute)
			if !first {
				start = start.Add(time.Minute)
			}
			scale := 1.0
			if side == 1 {
				scale = 0.7
			}
			r := runResult{Workload: "paper_study", Start: start, Attempted: 1, Correct: true, Metrics: map[string]summary{}}
			for _, m := range def.EndToEnd {
				r.Metrics[m.Name] = summary{Value: scale * (10 + 0.01*float64(i%3)), Unit: m.Unit}
			}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, r.Workload+time.Duration(i).String()+".json"), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, err := loadRuns(dirA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadRuns(dirB)
	if err != nil {
		t.Fatal(err)
	}
	vs := compareRuns(def, a, b)
	if len(vs) != len(def.EndToEnd) {
		t.Fatalf("%d verdicts, want one per end-to-end metric (%d)", len(vs), len(def.EndToEnd))
	}
	for _, v := range vs {
		if v.Pairs != 10 || v.Result != "improved" {
			t.Errorf("%s/%s: %d pairs, verdict %s (%s); want 10 pairs, improved", v.Workload, v.Metric, v.Pairs, v.Result, v.Why)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metrics the benchmark prints
// and the ones BENCHMARK.json declares in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	def, err := readBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, code []metricDef, names, units []string) {
		if len(code) != len(names) {
			t.Errorf("%s: the benchmark reports %d metrics, BENCHMARK.json declares %d", kind, len(code), len(names))
			return
		}
		for i, m := range code {
			if m.name != names[i] || m.unit != units[i] {
				t.Errorf("%s metric %d: benchmark %s (%s), BENCHMARK.json %s (%s)", kind, i, m.name, m.unit, names[i], units[i])
			}
		}
	}
	var names, units []string
	for _, m := range def.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("end_to_end", e2eMetrics, names, units)
	names, units = nil, nil
	for _, m := range def.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayerMetrics, names, units)
	var workloads []string
	for _, w := range def.Workloads {
		workloads = append(workloads, w.Name)
	}
	if got := workloadNames(); len(got) != len(workloads) {
		t.Errorf("workloads: benchmark %v, BENCHMARK.json %v", got, workloads)
	} else {
		for i := range got {
			if got[i] != workloads[i] {
				t.Errorf("workloads: benchmark %v, BENCHMARK.json %v", got, workloads)
				break
			}
		}
	}
}
