// Command lagbench is LagAlyzer's benchmark. Three workloads run the
// shipped CLIs (lagreport, lagalyzer) end to end as subprocesses; with
// -trace 1 a separate in-process pass times every layer with obs spans.
// See README.md.
//
//	bash bench/run.sh --workload paper_study --seed 42 --seconds 25 --trace 0
//	bash bench/run.sh -smoke
//	bash bench/run.sh -sweep
//	bash bench/run.sh compare parent-results/ change-results/
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics of the run. Every run also writes a
// results file (machine facts, every summary, every sample) that
// compare reads. `lagbench calibrate` is the calibration program the
// runs start between timed operations (calib.go).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(mainCode())
}

func mainCode() int {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			return runCompare(os.Args[2:])
		case "calibrate":
			return calibrate()
		}
	}
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (default all with -smoke)")
		seed     = flag.Uint64("seed", 42, "seed the workload inputs are generated from")
		seconds  = flag.Int("seconds", 25, "how long the timed phase measures")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced pass")
		smoke    = flag.Bool("smoke", false, "run every workload at toy scale (all of them in well under 30 s)")
		sweep    = flag.Bool("sweep", false, "report how paper_study scales with the episode count (not gated)")
		root     = flag.String("root", ".", "repository root: the directory holding go.mod and cmd/")
		build    = flag.String("build", "", "directory for binaries, scratch data, and results (default <root>/.bench_build)")
		results  = flag.String("results", "", "directory for results files (default <build>/results)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "lagbench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "lagbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "lagbench: -seconds must be at least 1")
		return 2
	}

	names := workloadNames()
	switch {
	case *workload != "":
		if newWorkload(*workload) == nil {
			fmt.Fprintf(os.Stderr, "lagbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(names, ", "))
			return 2
		}
		names = []string{*workload}
	case !*smoke && !*sweep:
		fmt.Fprintln(os.Stderr, "lagbench: -workload is required (or -smoke, -sweep)")
		return 2
	}

	e, err := newEnv(*root, *build, *results)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lagbench:", err)
		return 1
	}
	defer os.RemoveAll(e.scratch)
	e.seed = *seed
	e.sc = benchScale
	if *smoke {
		e.sc = smokeScale
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := e.buildCLIs(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "lagbench:", err)
		return 1
	}
	// After the build, a run ends well inside the 180 s it may take; the
	// context kills any CLI still running when it expires.
	limit := 170 * time.Second
	if *sweep {
		limit = 30 * time.Minute
	}
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	if *sweep {
		if err := runSweep(ctx, e); err != nil {
			fmt.Fprintln(os.Stderr, "lagbench: sweep:", err)
			return 1
		}
		return 0
	}

	d := time.Duration(*seconds) * time.Second
	if *smoke {
		d = time.Second
	}
	// A multi-workload run (smoke) prints the last workload's metrics
	// with the operation counts of all of them.
	var line resultLine
	attempted, failed := 0, 0
	for _, name := range names {
		res, err := runOne(ctx, e, name, d, *traced == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lagbench: %s: %v\n", name, err)
			return 1
		}
		res.Smoke = *smoke
		path, err := res.write(e.results)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lagbench:", err)
			return 1
		}
		res.printTable(os.Stderr, path)
		attempted += res.Attempted
		failed += res.Failed
		line = res.line()
	}
	line.Attempted, line.Failed, line.Correct = attempted, failed, failed == 0
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lagbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// env is what every workload needs: where the CLIs are, where scratch
// data goes, and the inputs' seed and scale.
type env struct {
	root    string // repository root (go.mod, cmd/)
	bin     string // the built CLIs
	scratch string // this process's scratch directory, removed at exit
	results string
	seed    uint64
	sc      scale
}

func newEnv(root, build, results string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	for _, p := range []string{"go.mod", "cmd/lagreport", "cmd/lagalyzer"} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return nil, fmt.Errorf("%s is not the repository root (missing %s)", root, p)
		}
	}
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("cannot reset the peak RSS that children inherit: %w", err)
	}
	if build == "" {
		build = filepath.Join(root, ".bench_build")
	}
	if build, err = filepath.Abs(build); err != nil {
		return nil, err
	}
	if results == "" {
		results = filepath.Join(build, "results")
	}
	if err := os.MkdirAll(filepath.Join(build, "work"), 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(filepath.Join(build, "work"), "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, bin: filepath.Join(build, "bin"), scratch: scratch, results: results}, nil
}

// buildCLIs builds the CLIs from the checkout, so the benchmark always
// measures the program as it ships in that tree.
func (e *env) buildCLIs(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.bin+string(filepath.Separator),
		"./cmd/lagreport", "./cmd/lagalyzer")
	cmd.Dir = e.root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the CLIs: %w", err)
	}
	return nil
}

// dir creates a fresh directory under the scratch directory.
func (e *env) dir(name string) (string, error) {
	d := filepath.Join(e.scratch, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// run accumulates one workload run: its operation outcomes, e2e
// samples, and per-layer values.
type run struct {
	*env
	workload          string
	stamp             string // names the run's results files
	attempted, failed int
	failures          []string
	samples           map[string][]float64
	calibAt           map[string][]int // per timed sample, the calibration run before it
	layers            map[string]float64
}

// check records one operation's outcome; a failed check is a failed
// operation and makes the run incorrect.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		msg := fmt.Sprintf(format, args...)
		r.failures = append(r.failures, msg)
		fmt.Fprintln(os.Stderr, "lagbench: check failed:", msg)
	}
	return ok
}

func (r *run) sample(metric string, v float64) {
	r.samples[metric] = append(r.samples[metric], v)
}

// runOne runs one workload: set-up (timed), the timed phase, and with
// traced the per-layer pass.
func runOne(ctx context.Context, e *env, name string, d time.Duration, traced bool) (*runResult, error) {
	w := newWorkload(name)
	kind := "e2e"
	if traced {
		kind = "trace"
	}
	start := time.Now().UTC()
	r := &run{
		env:      e,
		workload: name,
		stamp:    fmt.Sprintf("%s-seed%d-%s-%s", name, e.seed, kind, start.Format("20060102T150405.000")),
		samples:  map[string][]float64{},
		calibAt:  map[string][]int{},
		layers:   map[string]float64{},
	}
	res := &runResult{
		Stamp:      r.stamp,
		Workload:   name,
		Seed:       e.seed,
		Seconds:    d.Seconds(),
		Trace:      traced,
		Start:      start,
		Machine:    machineFacts(e.root),
		LoadBefore: loadAvg(),
	}
	// Set-up is repeated and its median reported, so that work moved
	// into set-up shows. The warm-up iteration runs once, after the last
	// repetition, whose inputs the run uses. Calibration runs (calib.go)
	// bracket every repetition, the warm-up, and every timed iteration.
	prev := ""
	for i := 0; i < e.sc.setupReps; i++ {
		if err := r.calibrateOnce(ctx); err != nil {
			return nil, err
		}
		dir, err := e.dir(fmt.Sprintf("setup%d", i))
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if err := w.prepare(ctx, r, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.timedSample("prepare_s", time.Since(t).Seconds())
		if prev != "" {
			os.RemoveAll(prev)
		}
		prev = dir
		quiesce()
	}
	if err := r.calibrateOnce(ctx); err != nil {
		return nil, err
	}
	t := time.Now()
	if err := w.warmup(ctx, r); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r.timedSample("warmup_s", time.Since(t).Seconds())
	quiesce()

	if traced {
		if err := w.traced(ctx, r, d); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	} else if err := w.measure(ctx, r, d); err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.LoadAfter = loadAvg()

	// Times are reported in reference seconds (calib.go); the results
	// file keeps the raw samples beside them (wall_raw_s, prepare_s,
	// warmup_s, calib_s).
	res.RefCalibS = refCalibS
	res.Metrics = map[string]summary{}
	if traced {
		r.layers["cpu_s"] = median(r.samples["cpu_s"])
		r.layers["wall_raw_s"] = median(r.samples["wall_s"])
		r.layers["calib_s"] = median(r.samples["calib_s"])
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = summary{Value: r.layers[m.name], Unit: m.unit, N: 1}
		}
	} else {
		if len(r.samples["wall_s"]) == 0 {
			return nil, fmt.Errorf("no wall_s samples")
		}
		warm := r.reference("warmup_s")[0]
		for _, p := range r.reference("prepare_s") {
			r.sample("setup_s", p+warm)
		}
		r.samples["wall_raw_s"], r.samples["wall_s"] = r.samples["wall_s"], r.reference("wall_s")
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = summarize(r.samples[m.name], m.unit)
		}
	}
	res.Samples = r.samples
	res.Attempted, res.Failed, res.Failures = r.attempted, r.failed, r.failures
	res.Correct = r.failed == 0 && r.attempted > 0
	return res, nil
}

// quiesce lets the machine settle between timed phases: the benchmark
// returns its own freed memory to the OS, so that it does not compete
// with the next timed operation. The previous iteration's outputs were
// deleted before writeback, so they leave no dirty pages to flush.
//
// It also resets the benchmark's own peak RSS to its current RSS. Go
// starts a child with vfork semantics, and Linux carries the peak RSS of
// the address space the child leaves at exec, which is the benchmark's,
// into the child's rusage: without the reset, every CLI's peak_rss_mb
// would read at least the benchmark's peak from generating the inputs.
func quiesce() {
	debug.FreeOSMemory()
	_ = resetPeakRSS() // newEnv checked that the reset works here
}

func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload reports with
// -trace 0; the times are in reference seconds.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayerMetrics are reported with -trace 1, every one on every
// workload: a layer a workload does not run reads 0. Their times are
// raw; calib_s gives the machine's speed during the run.
var perLayerMetrics = []metricDef{
	{"sim.busy_ms", "ms"}, {"sim.records", "count"},
	{"encode.v2_ms", "ms"}, {"encode.v2flate_ms", "ms"}, {"encode.mb", "MiB"},
	{"decode.v2_ms", "ms"}, {"decode.v2flate_ms", "ms"},
	{"decode.records", "count"}, {"decode.blocks_inflated", "count"}, {"decode.blocks_skipped", "count"},
	{"load.jobs1_ms", "ms"}, {"load.jobsN_ms", "ms"}, {"load.speedup", "ratio"}, {"load.pool_wait_p50_ms", "ms"},
	{"treebuild.busy_ms", "ms"}, {"treebuild.episodes", "count"},
	{"engine.busy_ms", "ms"}, {"engine.classify_ms", "ms"}, {"engine.merge_ms", "ms"},
	{"engine.overview_ms", "ms"}, {"engine.episodes", "count"}, {"patterns.dedup_ratio", "ratio"},
	{"analysis.busy_ms", "ms"}, {"stream.busy_ms", "ms"},
	{"render.busy_ms", "ms"}, {"render.mb", "MiB"},
	{"checkpoint.mb", "MiB"}, {"study.no_out_s", "s"}, {"resume_s", "s"}, {"study.paper_scale_s", "s"},
	{"wall_raw_s", "s"}, {"cpu_s", "s"}, {"calib_s", "s"},
	{"trace_overhead_pct", "%"}, {"unattributed_pct", "%"},
}

// runResult is one run as written to its results file.
type runResult struct {
	Stamp      string               `json:"stamp"`
	Workload   string               `json:"workload"`
	Seed       uint64               `json:"seed"`
	Seconds    float64              `json:"seconds"`
	Trace      bool                 `json:"trace"`
	Smoke      bool                 `json:"smoke,omitempty"`
	Start      time.Time            `json:"start"`
	Machine    machine              `json:"machine"`
	LoadBefore [3]float64           `json:"loadavg_before"`
	LoadAfter  [3]float64           `json:"loadavg_after"`
	RefCalibS  float64              `json:"ref_calib_s"`
	Correct    bool                 `json:"correct"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Failures   []string             `json:"failures,omitempty"`
	Metrics    map[string]summary   `json:"metrics"`
	Samples    map[string][]float64 `json:"samples"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) line() resultLine {
	l := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineMetric{}}
	for name, s := range r.Metrics {
		l.Metrics[name] = lineMetric{s.Value, s.Unit}
	}
	return l
}

// write stores the run as a results file and returns its path.
func (r *runResult) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.Stamp+".json")
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// printTable prints the run's metrics for a reader.
func (r *runResult) printTable(f *os.File, path string) {
	fmt.Fprintf(f, "== %s seed %d (%s, %d/%d operations ok) ==\n",
		r.Workload, r.Seed, map[bool]string{false: "end to end", true: "traced"}[r.Trace],
		r.Attempted-r.Failed, r.Attempted)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.Metrics[n]
		fmt.Fprintf(f, "  %-28s %14.6g %-6s n=%d", n, s.Value, s.Unit, s.N)
		if s.N > 1 {
			fmt.Fprintf(f, " q1=%.6g q3=%.6g", s.Q1, s.Q3)
		}
		if s.Pct != "" {
			fmt.Fprintf(f, " %s=%.6g", s.Pct, s.PctValue)
		}
		fmt.Fprintln(f)
	}
	fmt.Fprintln(f, "  results:", path)
}
