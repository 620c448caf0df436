package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lagalyzer"
)

// workload is one benchmark workload. prepare generates inputs (timed
// as set-up; it may be repeated); warmup runs one untimed iteration
// counted in set-up; measure records the e2e samples for d; traced runs
// the per-layer pass.
type workload interface {
	prepare(ctx context.Context, r *run, dir string) error
	warmup(ctx context.Context, r *run) error
	measure(ctx context.Context, r *run, d time.Duration) error
	traced(ctx context.Context, r *run, d time.Duration) error
}

// workloadList is every workload, in the order BENCHMARK.json names
// them.
var workloadList = []struct {
	name string
	new  func() workload
}{
	{"paper_study", func() workload { return &paperStudy{} }},
	{"trace_dir", func() workload { return &traceDir{} }},
	{"big_trace", func() workload { return &bigTrace{} }},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadList {
		out = append(out, w.name)
	}
	return out
}

func newWorkload(name string) workload {
	for _, w := range workloadList {
		if w.name == name {
			return w.new()
		}
	}
	return nil
}

// scale sets the input sizes; smoke mode shrinks every workload to toy
// size.
type scale struct {
	studySeconds   float64 // paper_study's session length (one session per app)
	corpusSessions int     // sessions per app: trace_dir
	corpusSeconds  float64 // trace_dir's session length (0 = profile defaults)
	bigSeconds     float64 // big_trace's one GanttProject session
	paperScale     bool    // traced paper_study also times the EXPERIMENTS.md configuration
	setupReps      int     // set-up repetitions per run
	minIters       int     // timed iterations per run, at least
}

// benchScale keeps every timed operation near half a second on a
// 2-vCPU machine, so that a run holds enough of them for a steady
// median: the paper's study at one 4-minute session per app (about
// 31,000 episodes), a 28-session trace directory, and a 2-hour trace.
var benchScale = scale{studySeconds: 240, corpusSessions: 2, bigSeconds: 2 * 3600, paperScale: true, setupReps: 3, minIters: 3}

var smokeScale = scale{studySeconds: 20, corpusSessions: 2, corpusSeconds: 20, bigSeconds: 120, setupReps: 1, minIters: 1}

// appNames is the 14-application study catalog in catalog order.
func appNames() []string {
	var out []string
	for _, p := range lagalyzer.Profiles() {
		out = append(out, p.Name)
	}
	return out
}

// record stores one CLI invocation's e2e samples.
func (r *run) record(p proc) {
	r.timedSample("wall_s", p.wall.Seconds())
	r.sample("peak_rss_mb", p.rssMB)
	r.sample("cpu_s", p.cpu.Seconds())
}

// loop runs op until d has elapsed and at least minIters ran, letting
// the machine settle after each. Calibration runs bracket every
// iteration.
func (r *run) loop(ctx context.Context, d time.Duration, op func(i int) error) error {
	start := time.Now()
	for i := 0; i < r.sc.minIters || time.Since(start) < d; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := r.calibrateOnce(ctx); err != nil {
			return err
		}
		if err := op(i); err != nil {
			return err
		}
		quiesce()
	}
	return r.calibrateOnce(ctx)
}

// parallel runs fn(0..n-1) on one worker per CPU and returns the first
// error.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(n, runtime.GOMAXPROCS(0)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// timedCLI runs one timed CLI invocation: a failure is a failed
// operation, a success records its samples and is checked by ok.
func (r *run) timedCLI(ctx context.Context, ok func(p proc) error, name string, args ...string) {
	p, err := runCLI(ctx, r.bin, name, args...)
	if err == nil {
		err = ok(p)
	}
	if r.check(err == nil, "%v", err) {
		r.record(p)
	}
}

// corpusEncoding is the encoding of session i in a written corpus:
// even sessions flate-compressed, odd ones raw, so that decode covers
// both block encodings.
func corpusEncoding(i int) encoding {
	if i%2 == 0 {
		return encV2Flate
	}
	return encV2
}

// writeCorpus simulates sessions 0..n-1 of each app and writes them as
// LiLa v2 files <app>-<i>.lila in corpusEncoding(i).
func writeCorpus(p *pass, dir string, apps []string, n int, seed uint64, seconds float64) error {
	for _, app := range apps {
		suites, err := simulate(p, []string{app}, n, seed, seconds)
		if err != nil {
			return err
		}
		for i, s := range suites[0].Sessions {
			if err := writeSessionFile(p, filepath.Join(dir, fmt.Sprintf("%s-%d.lila", app, i)), corpusEncoding(i), s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSessionFile(p *pass, path string, enc encoding, s *lagalyzer.Session) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encode(p, enc, f, s); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// dirMB is the size of the files under dir in MiB.
func dirMB(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n) / (1 << 20)
}

// readExperiments reads the experiments.md a lagreport -out run wrote.
func readExperiments(out string) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(out, "experiments.md"))
	if err != nil {
		return nil, fmt.Errorf("lagreport wrote no experiments.md: %w", err)
	}
	return b, nil
}

// checkExperiments compares the experiments.md in out with want.
func checkExperiments(out string, want []byte) error {
	got, err := readExperiments(out)
	if err != nil {
		return err
	}
	return sameExperiments(got, want)
}

// timedStudy runs one timed `lagreport <args> -out <out>` into a fresh
// directory, checks its experiments.md against want, and removes it.
func (r *run) timedStudy(ctx context.Context, out string, want []byte, args ...string) error {
	r.timedCLI(ctx, func(proc) error { return checkExperiments(out, want) },
		"lagreport", append(args, "-out", out)...)
	return os.RemoveAll(out)
}

// sameExperiments compares two experiments.md texts; masked lines
// (1-based) may differ.
func sameExperiments(got, want []byte, masked ...int) error {
	g, w := string(got), string(want)
	for _, n := range masked {
		g, w = maskLine(g, n), maskLine(w, n)
	}
	if g != w {
		return fmt.Errorf("experiments.md differs from the reference (%s vs %s)", digest(got), digest(want))
	}
	return nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return fmt.Sprintf("sha256:%x", h[:6])
}

// configLine is the experiments.md line naming the study configuration
// (apps × sessions, seed), the one line an in-process study prints
// differently from lagreport's over the same sessions.
const configLine = 3

// warmStudy runs the warm-up `lagreport <args> -out <out>` and returns
// its experiments.md, which every later iteration must reproduce.
func (r *run) warmStudy(ctx context.Context, out string, args ...string) ([]byte, error) {
	if _, err := runCLI(ctx, r.bin, "lagreport", append(args, "-out", out)...); err != nil {
		return nil, err
	}
	return readExperiments(out)
}

// --- paper_study ---

// paperStudy is `lagreport -seed S -sessions 1 -seconds 240 -out <fresh
// dir>`: the paper's study of the 14 catalog applications, at one
// 4-minute session per app, with every figure: sim, engine, checkpoint
// save, and render; no trace decode.
type paperStudy struct {
	dir  string
	want []byte // experiments.md every iteration must reproduce
	warm string // the warm-up's completed out directory
}

func (w *paperStudy) prepare(ctx context.Context, r *run, dir string) error {
	w.dir = dir
	return nil
}

// study is the lagreport command line, without -out.
func (w *paperStudy) study(r *run) []string {
	return []string{"-seed", fmt.Sprint(r.seed), "-sessions", "1", "-seconds", fmt.Sprint(r.sc.studySeconds)}
}

func (w *paperStudy) warmup(ctx context.Context, r *run) error {
	w.warm = filepath.Join(w.dir, "warm")
	var err error
	w.want, err = r.warmStudy(ctx, w.warm, w.study(r)...)
	return err
}

func (w *paperStudy) measure(ctx context.Context, r *run, d time.Duration) error {
	return r.loop(ctx, d, func(i int) error {
		return r.timedStudy(ctx, filepath.Join(w.dir, fmt.Sprintf("iter%d", i)), w.want, w.study(r)...)
	})
}

func (w *paperStudy) traced(ctx context.Context, r *run, d time.Duration) error {
	// A few untraced iterations give the CLI's raw wall and CPU time.
	if err := w.measure(ctx, r, 0); err != nil {
		return err
	}
	apps := appNames()
	err := repeatPasses(ctx, r, d, func(p *pass) error {
		suites, err := simulate(p, apps, 1, r.seed, r.sc.studySeconds)
		if err != nil {
			return err
		}
		md := render(p, analyze(p, suites))
		p.done()
		r.check(sameExperiments([]byte(md), w.want, configLine) == nil,
			"paper_study: the in-process study renders a different experiments.md than lagreport")
		return nil
	})
	if err != nil {
		return err
	}

	// The checkpoint store is measured from outside: its size on disk,
	// a run without -out, and a resumed run over the warm-up's
	// completed directory.
	r.layers["checkpoint.mb"] = dirMB(filepath.Join(w.warm, ".checkpoint"))
	if p, err := runCLI(ctx, r.bin, "lagreport", w.study(r)...); r.check(err == nil, "%v", err) {
		r.layers["study.no_out_s"] = p.wall.Seconds()
	}
	if p, err := runCLI(ctx, r.bin, "lagreport", append(w.study(r), "-out", w.warm)...); r.check(err == nil, "%v", err) {
		r.layers["resume_s"] = p.wall.Seconds()
		err := checkExperiments(w.warm, w.want)
		r.check(err == nil, "paper_study resumed: %v", err)
	}
	if !r.sc.paperScale {
		return nil
	}
	// The EXPERIMENTS.md configuration itself (14 apps × 4 sessions,
	// 252,042 episodes at seed 42), once: at seed 42 its experiments.md
	// must be the committed EXPERIMENTS.md byte for byte.
	out := filepath.Join(w.dir, "paper")
	p, err := runCLI(ctx, r.bin, "lagreport", "-seed", fmt.Sprint(r.seed), "-sessions", "4", "-out", out)
	if !r.check(err == nil, "%v", err) {
		return nil
	}
	r.layers["study.paper_scale_s"] = p.wall.Seconds()
	if r.seed == 42 {
		want, err := os.ReadFile(filepath.Join(r.root, "EXPERIMENTS.md"))
		if err != nil {
			return err
		}
		err = checkExperiments(out, want)
		r.check(err == nil, "paper_study at the EXPERIMENTS.md configuration, seed 42: %v", err)
	}
	return os.RemoveAll(out)
}

// --- trace_dir ---

// traceDir is `lagreport -traces <corpus> -out <fresh dir>` over two
// sessions of each catalog app written as LiLa v2 (session 0 flate,
// session 1 raw): decode, treebuild, engine, and render, with no sim and
// no checkpoint. With 28 files on a few cores the cross-file pool keeps
// every core busy, so intra-file block decode stays at one worker: this
// is the workload that bypasses block parallelism.
type traceDir struct {
	dir, corpus string
	want        []byte
}

func (w *traceDir) prepare(ctx context.Context, r *run, dir string) error {
	w.dir, w.corpus = dir, filepath.Join(dir, "corpus")
	if err := os.MkdirAll(w.corpus, 0o755); err != nil {
		return err
	}
	apps := appNames()
	return parallel(len(apps), func(i int) error {
		return writeCorpus(newPass(false), w.corpus, apps[i:i+1], r.sc.corpusSessions, r.seed, r.sc.corpusSeconds)
	})
}

func (w *traceDir) warmup(ctx context.Context, r *run) error {
	out := filepath.Join(w.dir, "warm")
	var err error
	if w.want, err = r.warmStudy(ctx, out, "-traces", w.corpus); err != nil {
		return err
	}
	return os.RemoveAll(out)
}

func (w *traceDir) measure(ctx context.Context, r *run, d time.Duration) error {
	return r.loop(ctx, d, func(i int) error {
		return r.timedStudy(ctx, filepath.Join(w.dir, fmt.Sprintf("iter%d", i)), w.want, "-traces", w.corpus)
	})
}

func (w *traceDir) traced(ctx context.Context, r *run, d time.Duration) error {
	// A few untraced iterations give the CLI's raw wall and CPU time.
	if err := w.measure(ctx, r, 0); err != nil {
		return err
	}
	apps := appNames()
	gen := filepath.Join(w.dir, "regen")
	return repeatPasses(ctx, r, d, func(p *pass) error {
		// The set-up's generation, traced: it explains setup_s.
		if err := os.RemoveAll(gen); err != nil {
			return err
		}
		if err := os.MkdirAll(gen, 0o755); err != nil {
			return err
		}
		if err := writeCorpus(p, gen, apps, r.sc.corpusSessions, r.seed, r.sc.corpusSeconds); err != nil {
			return err
		}
		// The analyst path: the directory loader at one and at every
		// worker, then per-file decode and treebuild, engine, render.
		// The loader's sessions are dropped before the per-file decode,
		// so only one copy of the corpus is live at a time.
		if _, err := loadDir(p, w.corpus); err != nil {
			return err
		}
		var suites []*lagalyzer.Suite
		for _, app := range apps {
			su := &lagalyzer.Suite{App: app}
			for i := 0; i < r.sc.corpusSessions; i++ {
				s, err := loadV2(p, filepath.Join(w.corpus, fmt.Sprintf("%s-%d.lila", app, i)), corpusEncoding(i))
				if err != nil {
					return err
				}
				su.Sessions = append(su.Sessions, s)
			}
			suites = append(suites, su)
		}
		// The directory loader orders suites by app name.
		sort.Slice(suites, func(i, j int) bool { return suites[i].App < suites[j].App })
		md := render(p, analyze(p, suites))
		p.done()
		r.check(sameExperiments([]byte(md), w.want) == nil,
			"trace_dir: in-process decode+analysis renders a different experiments.md than lagreport -traces")
		return nil
	})
}

// --- big_trace ---

// bigTrace is `lagalyzer stats <file>` over one 2-hour GanttProject
// session (about 1.5 M records, v2-flate) at the default -jobs. It is
// the only workload where decode workers spill into one file's blocks,
// and the only one on the per-figure analysis path instead of the
// engine.
type bigTrace struct {
	dir, file string
	want      []byte // stats output at -jobs 1
}

func (w *bigTrace) prepare(ctx context.Context, r *run, dir string) error {
	w.dir, w.file = dir, filepath.Join(dir, "trace", "GanttProject-big.lila")
	if err := os.MkdirAll(filepath.Dir(w.file), 0o755); err != nil {
		return err
	}
	p := newPass(false)
	suites, err := simulate(p, []string{"GanttProject"}, 1, r.seed, r.sc.bigSeconds)
	if err != nil {
		return err
	}
	return writeSessionFile(p, w.file, encV2Flate, suites[0].Sessions[0])
}

func (w *bigTrace) warmup(ctx context.Context, r *run) error {
	p, err := runCLI(ctx, r.bin, "lagalyzer", "-jobs", "1", "stats", w.file)
	if err != nil {
		return err
	}
	w.want = p.stdout
	return nil
}

func (w *bigTrace) measure(ctx context.Context, r *run, d time.Duration) error {
	return r.loop(ctx, d, func(int) error {
		r.timedCLI(ctx, func(p proc) error {
			if !bytes.Equal(p.stdout, w.want) {
				return fmt.Errorf("big_trace: stats output at the default -jobs differs from -jobs 1")
			}
			return nil
		}, "lagalyzer", "stats", w.file)
		return nil
	})
}

func (w *bigTrace) traced(ctx context.Context, r *run, d time.Duration) error {
	// A few untraced iterations give the CLI's raw wall and CPU time.
	if err := w.measure(ctx, r, 0); err != nil {
		return err
	}
	regen := filepath.Join(w.dir, "regen.lila")
	data, err := os.ReadFile(w.file)
	if err != nil {
		return err
	}
	return repeatPasses(ctx, r, d, func(p *pass) error {
		suites, err := simulate(p, []string{"GanttProject"}, 1, r.seed, r.sc.bigSeconds)
		if err != nil {
			return err
		}
		if err := writeSessionFile(p, regen, encV2Flate, suites[0].Sessions[0]); err != nil {
			return err
		}
		// Each step below holds one copy of the session at most: the
		// simulated one is dropped first, the loader's before the
		// per-file decode.
		suites = nil
		if _, err := loadDir(p, filepath.Dir(w.file)); err != nil {
			return err
		}
		s, err := loadV2(p, w.file, encV2Flate)
		if err != nil {
			return err
		}
		analysisPass(p, []*lagalyzer.Session{s})
		return streamPass(p, data)
	})
}
