package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runCompare is `lagbench compare [-benchmark BENCHMARK.json] A B`: A
// holds the parent commit's e2e results files, B the change's (each a
// directory, or a single file). Runs pair up per workload in start
// order, the i-th of A with the i-th of B, and every (workload, e2e
// metric) gets a verdict:
//
//   - unresolved: fewer than 10 pairs, pairs that did not alternate
//     which side ran first, or a run-to-run spread (IQR over median)
//     wider than the metric's bound unless every run of B reads better
//     than every run of A;
//   - improved: B wins at least 9 of 10 pairs (ties count for neither)
//     and the medians differ by more than A's IQR, with no more failed
//     operations than A;
//   - regressed: B's median is worse than A's by more than the bound;
//   - unchanged: otherwise.
//
// The exit code is 1 when any verdict is regressed.
func runCompare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding each end-to-end metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: lagbench compare [-benchmark BENCHMARK.json] <parent results> <change results>")
		return 2
	}
	def, err := readBenchmark(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lagbench compare:", err)
		return 1
	}
	a, err := loadRuns(fs.Arg(0))
	if err == nil {
		var b map[string][]*runResult
		b, err = loadRuns(fs.Arg(1))
		if err == nil {
			return printVerdicts(compareRuns(def, a, b))
		}
	}
	fmt.Fprintln(os.Stderr, "lagbench compare:", err)
	return 1
}

// benchmarkDef is the part of BENCHMARK.json compare reads.
type benchmarkDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmark(path string) (*benchmarkDef, error) {
	var def benchmarkDef
	if err := readJSON(path, &def); err != nil {
		return nil, err
	}
	return &def, nil
}

// loadRuns reads e2e results files, grouped by workload and sorted by
// start time.
func loadRuns(path string) (map[string][]*runResult, error) {
	files := []string{path}
	if info, err := os.Stat(path); err != nil {
		return nil, err
	} else if info.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
	}
	out := map[string][]*runResult{}
	for _, f := range files {
		if strings.HasSuffix(f, ".layers.json") {
			continue
		}
		var r runResult
		if err := readJSON(f, &r); err != nil {
			return nil, err
		}
		if r.Workload == "" || r.Trace {
			continue
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	for _, runs := range out {
		sort.Slice(runs, func(i, j int) bool { return runs[i].Start.Before(runs[j].Start) })
	}
	return out, nil
}

// verdict judges one (workload, metric) across paired runs.
type verdict struct {
	Workload, Metric string
	Pairs            int
	MedA, MedB       float64
	IQRA, IQRB       float64
	Wins             int // pairs B reads better
	Bound            float64
	Result, Why      string
}

// compareRuns pairs the runs of every workload both sides ran and
// judges each e2e metric.
func compareRuns(def *benchmarkDef, a, b map[string][]*runResult) []verdict {
	var names []string
	for w := range a {
		if len(b[w]) > 0 {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	var out []verdict
	for _, w := range names {
		ra, rb := a[w], b[w]
		n := min(len(ra), len(rb))
		ra, rb = ra[:n], rb[:n]
		alternated := true
		failedA, failedB := 0, 0
		for i := range ra {
			if i > 0 && ra[i].Start.Before(rb[i].Start) == ra[i-1].Start.Before(rb[i-1].Start) {
				alternated = false
			}
			failedA += ra[i].Failed
			failedB += rb[i].Failed
		}
		for _, m := range def.EndToEnd {
			xa, xb := make([]float64, n), make([]float64, n)
			for i := range ra {
				xa[i], xb[i] = ra[i].Metrics[m.Name].Value, rb[i].Metrics[m.Name].Value
			}
			v := judge(xa, xb, m.Bound, m.Better != "higher", alternated, failedA, failedB)
			v.Workload, v.Metric = w, m.Name
			out = append(out, v)
		}
	}
	return out
}

// minPairs is the fewest pairs a verdict other than unresolved rests on.
const minPairs = 10

// judge applies the comparison rules to paired samples a (parent) and
// b (change) of one metric.
func judge(a, b []float64, bound float64, lowerBetter, alternated bool, failedA, failedB int) verdict {
	v := verdict{Pairs: len(a), Bound: bound}
	if len(a) == 0 || len(a) != len(b) {
		v.Result, v.Why = "unresolved", "no paired runs"
		return v
	}
	v.MedA, v.MedB = median(a), median(b)
	q1, q3 := quartiles(a)
	v.IQRA = q3 - q1
	q1, q3 = quartiles(b)
	v.IQRB = q3 - q1
	// better reports whether x reads better than y.
	better := func(x, y float64) bool {
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	allBetter := true
	for i := range a {
		if better(b[i], a[i]) {
			v.Wins++
		}
	}
	for _, y := range b {
		for _, x := range a {
			if !better(y, x) {
				allBetter = false
			}
		}
	}
	// worse is how much worse B's median reads, as a share of A's.
	worse := (v.MedB - v.MedA) / v.MedA
	if !lowerBetter {
		worse = -worse
	}
	gap := v.MedA - v.MedB
	if !lowerBetter {
		gap = -gap
	}
	spread := max(v.IQRA/v.MedA, v.IQRB/v.MedB)

	switch {
	case len(a) < minPairs:
		v.Result, v.Why = "unresolved", fmt.Sprintf("%d pairs, fewer than %d", len(a), minPairs)
	case !alternated:
		v.Result, v.Why = "unresolved", "pairs did not alternate which side ran first"
	case v.Wins*10 >= 9*len(a) && gap > v.IQRA && failedB <= failedA:
		v.Result, v.Why = "improved", fmt.Sprintf("won %d of %d pairs; gap %.4g > parent IQR %.4g", v.Wins, len(a), gap, v.IQRA)
	case spread > bound && !allBetter:
		v.Result, v.Why = "unresolved", fmt.Sprintf("spread %.1f%% exceeds the %.0f%% bound", 100*spread, 100*bound)
	case worse > bound:
		v.Result, v.Why = "regressed", fmt.Sprintf("median %.1f%% worse, bound %.0f%%", 100*worse, 100*bound)
	default:
		v.Result, v.Why = "unchanged", fmt.Sprintf("median %+.1f%%, within the %.0f%% bound", 100*(v.MedB-v.MedA)/v.MedA, 100*bound)
	}
	return v
}

// printVerdicts prints one row per (workload, metric) and returns the
// exit code.
func printVerdicts(vs []verdict) int {
	if len(vs) == 0 {
		fmt.Fprintln(os.Stderr, "lagbench compare: no workload has runs on both sides")
		return 1
	}
	code := 0
	fmt.Printf("%-12s %-12s %5s %12s %12s %10s %10s %5s  %s\n",
		"workload", "metric", "pairs", "parent", "change", "iqr-parent", "iqr-change", "wins", "verdict")
	for _, v := range vs {
		fmt.Printf("%-12s %-12s %5d %12.6g %12.6g %10.4g %10.4g %5d  %s: %s\n",
			v.Workload, v.Metric, v.Pairs, v.MedA, v.MedB, v.IQRA, v.IQRB, v.Wins, v.Result, v.Why)
		if v.Result == "regressed" {
			code = 1
		}
	}
	b, _ := json.Marshal(vs)
	fmt.Println(string(b))
	return code
}
