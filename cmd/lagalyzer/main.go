// Command lagalyzer analyzes LiLa latency traces: it reconstructs
// sessions, mines episode patterns, characterizes perceptible lag, and
// renders episode sketches. It is the command-line face of the
// LagAlyzer core.
//
// Usage:
//
//	lagalyzer stats    <trace>...          per-session overview + characterization
//	lagalyzer report   [-out dir] <trace>...  full study tables + SVG figures
//	lagalyzer patterns [-n 30] <trace>...  pattern table (the paper's §II-E browser table)
//	lagalyzer sketch   [-episode N] [-svg out.svg] <trace>
//	lagalyzer browse   <trace>...          interactive pattern browser
//	lagalyzer convert  [-to v2] <trace>... re-encode traces between formats
//
// Traces in either encoding (text, block-indexed v2) are accepted,
// sniffed by their first bytes; a trace in the retired v1 binary
// encoding is rejected with a hint to regenerate it. Generate
// synthetic traces with lilasim; re-encode recorded ones with convert
// — conversion is record-preserving, so analysis output is identical
// across formats.
//
// Global profiling flags (-cpuprofile, -memprofile, -trace) go before
// the subcommand: lagalyzer -cpuprofile cpu.out stats trace.lila
//
// Every subcommand but convert and stream -follow loads its traces
// through report.LoadFiles, the loader lagreport and lagd use, on the
// global -jobs workers. The global -salvage flag tolerates damaged
// traces: the decoders drop damaged text lines and v2 blocks, sessions
// are rebuilt leniently, and files that still cannot contribute
// anything are skipped with a note on stderr, in argument order once
// the load finishes, instead of aborting the run.
//
// Exit codes: 0 success, 1 total failure, 2 usage error, 3 partial
// success (-salvage skipped at least one input file entirely).
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/browser"
	"lagalyzer/internal/diff"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/obs/selftrace"
	"lagalyzer/internal/patterns"
	"lagalyzer/internal/report"
	"lagalyzer/internal/stream"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
	"lagalyzer/internal/viz"
)

// salvageMode mirrors the global -salvage flag; lostInputs counts the
// files that contributed nothing even under salvage (→ exit 3).
// runCtx is canceled by SIGINT/SIGTERM: the per-file loops stop at the
// next boundary, completed work is printed, and the run exits with the
// partial-success code instead of dying mid-write.
var (
	salvageMode bool
	loadJobs    int
	lostInputs  int
	runCtx      context.Context = context.Background()
)

func main() {
	os.Exit(run())
}

// run is main's body with a return code, so deferred cleanups (the
// profile writers) execute before the process exits.
func run() int {
	salvage := flag.Bool("salvage", false, "tolerate damaged traces: drop damaged lines and blocks, rebuild leniently, skip unrecoverable files")
	jobs := flag.Int("jobs", 0, "trace files decoded concurrently (0 = one per CPU, 1 = sequential)")
	selfProfile := flag.String("self-profile", "", "write a LiLa v2 trace of this run's own pipeline spans to this file")
	profiler := obs.AddProfileFlags(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()
	salvageMode = *salvage
	loadJobs = *jobs
	if flag.NArg() < 1 {
		usage()
	}
	stopProfiles, err := profiler.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lagalyzer:", err)
		return 1
	}
	defer stopProfiles()

	var stopSignals context.CancelFunc
	runCtx, stopSignals = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	cmd, args := flag.Arg(0), flag.Args()[1:]

	// Self-profiling records the run's own spans and flushes them as a
	// LiLa v2 trace after the subcommand finishes — the tool's output
	// is already complete by then, so profiling cannot perturb it.
	var selfTr *obs.Trace
	if *selfProfile != "" {
		selfTr = obs.NewTrace()
		runCtx = obs.WithTrace(runCtx, selfTr)
		var endRoot func()
		runCtx, endRoot = obs.Span(runCtx, cmd)
		defer func() {
			endRoot()
			if err := selftrace.WriteFile(*selfProfile, selfTr, selftrace.Options{App: "lagalyzer-" + cmd}); err != nil {
				fmt.Fprintln(os.Stderr, "lagalyzer: self-profile:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "lagalyzer: wrote self-trace to %s\n", *selfProfile)
		}()
	}

	switch cmd {
	case "stats":
		err = runStats(args)
	case "report":
		err = runReport(args)
	case "patterns":
		err = runPatterns(args)
	case "sketch":
		err = runSketch(args)
	case "timeline":
		err = runTimeline(args)
	case "stream":
		err = runStream(args)
	case "browse":
		err = runBrowse(args)
	case "diff":
		err = runDiff(args)
	case "convert":
		err = runConvert(args)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "lagalyzer: unknown command %q\n", cmd)
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lagalyzer:", err)
		return 1
	}
	if lostInputs > 0 {
		fmt.Fprintf(os.Stderr, "lagalyzer: partial results — %d input file(s) skipped; exiting 3\n", lostInputs)
		return 3
	}
	return 0
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  lagalyzer stats    <trace>...            full characterization + threshold sweep
  lagalyzer report   [-out dir] <trace>... full study tables + figures over the given traces
  lagalyzer patterns [-n rows] [-sort count|total|max|avg] [-perceptible] <trace>...
  lagalyzer sketch   [-episode N] [-svg file] <trace>
  lagalyzer timeline [-svg file] <trace>   whole-session trace timeline
  lagalyzer stream   [-follow [-poll d] [-follow-idle d]] <trace>...
                                           single-pass statistics (memory: the open
                                           episodes and the ticks they can reach);
                                           -follow tails one growing trace: live on
                                           text; a v2 file is decoded when the
                                           follow ends (-follow-idle or SIGINT)
  lagalyzer browse   <trace>...            interactive pattern browser
  lagalyzer diff     [-n rows] <old> <new> compare two runs' patterns
  lagalyzer convert  [-to text|v2] [-compress] [-out dir] <trace>...
                                           re-encode traces (record-preserving);
                                           -compress DEFLATEs each v2 block

global flags (before the subcommand):
  -salvage           tolerate damaged traces (skip unrecoverable files; exit 3 if any)
  -jobs n            decode workers (0 = one per CPU, 1 = sequential); workers beyond
                     the file count decode v2 blocks within a file concurrently
  -self-profile f    write a LiLa v2 trace of this run's own pipeline spans to f
  -cpuprofile file   write a CPU profile
  -memprofile file   write a heap profile at exit
  -trace file        write a runtime execution trace

exit codes: 0 success, 1 total failure, 2 usage, 3 partial success`)
	os.Exit(2)
}

// loadFiles loads paths through report's file loader — strict by
// default, salvaging under -salvage, on -jobs workers — with episode
// as the per-file release-mode hook (nil builds whole sessions). Once
// the load finishes it prints each file's damage notes in argument
// order, skips what -salvage could not recover, and counts the files
// an interrupt left unread as lost. The usable files are those with a
// session; at least one has one when the error is nil.
func loadFiles(paths []string, episode func(i int) func(*trace.Session, *trace.Episode)) ([]report.FileLoad, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("no trace files given")
	}
	loads := report.LoadFiles(runCtx, paths,
		report.LoadOptions{Salvage: salvageMode, Strict: !salvageMode, Jobs: loadJobs}, episode)
	usable, interrupted := 0, 0
	for _, l := range loads {
		fh := &l.Health
		switch {
		case fh.Path == "":
			// Never loaded: the signal arrived before this file's
			// pickup. It counts as a lost input, so the run finishes
			// its output over what loaded and exits 3.
			interrupted++
		case fh.Error != "" && !salvageMode:
			// First failure in argument order.
			return nil, fmt.Errorf("%s: %s", fh.Path, fh.Error)
		case fh.Error != "":
			fmt.Fprintf(os.Stderr, "lagalyzer: %s: skipped: %s\n", fh.Path, fh.Error)
			lostInputs++
		default:
			noteDamage(fh.Path, fh.Salvage, fh.Diagnostics)
			if l.Session == nil {
				fmt.Fprintf(os.Stderr, "lagalyzer: %s: skipped: session exceeds the memory budget (%d episodes in %d records)\n",
					fh.Path, fh.StreamEpisodes, fh.StreamRecords)
				lostInputs++
				continue
			}
			usable++
		}
	}
	if interrupted > 0 {
		fmt.Fprintf(os.Stderr, "lagalyzer: interrupted — skipping %d remaining input(s)\n", interrupted)
		lostInputs += interrupted
	}
	if usable == 0 {
		return nil, fmt.Errorf("no loadable trace sessions (%d file(s) skipped)", lostInputs)
	}
	return loads, nil
}

// loadSessions loads paths as whole sessions, in argument order.
func loadSessions(paths []string) ([]*trace.Session, error) {
	loads, err := loadFiles(paths, nil)
	if err != nil {
		return nil, err
	}
	var sessions []*trace.Session
	for _, l := range loads {
		if l.Session != nil {
			sessions = append(sessions, l.Session)
		}
	}
	return sessions, nil
}

// noteDamage prints what a salvage-mode load of path worked around.
func noteDamage(path string, rep *lila.SalvageReport, diag *treebuild.Diagnostics) {
	if rep.Damaged() {
		fmt.Fprintf(os.Stderr, "lagalyzer: %s: salvage: %s\n", path, rep)
	}
	if diag.Degraded() {
		msg := fmt.Sprintf("skipped %d records, dropped %d open intervals, %d episodes",
			diag.SkippedRecords, diag.DroppedOpenIntervals, diag.DroppedEpisodes)
		if diag.SynthesizedEnd {
			msg += ", synthesized end"
		}
		fmt.Fprintf(os.Stderr, "lagalyzer: %s: rebuild: %s\n", path, msg)
	}
}

// fileFold is one trace file's release-mode analysis, the per-file
// fold stats and stream both print from: its statistics, the closed
// session (no episodes, ticks, or GCs), and its threshold sweep.
type fileFold struct {
	a     *stream.Analyzer
	st    *stream.Stats
	s     *trace.Session
	diag  *treebuild.Diagnostics
	sweep *analysis.Sweep
}

// analyzeEpisode is the fold's per-episode step; a variable so tests
// can inject a fault.
var analyzeEpisode = (*stream.Analyzer).Episode

// foldFiles loads each trace in release mode, analyzing each episode
// as it closes. A panic in a file's fold is that file's load error:
// exit 1, or the file skipped under -salvage.
func foldFiles(paths []string, threshold trace.Dur) ([]*fileFold, error) {
	folds := make([]*fileFold, len(paths))
	loads, err := loadFiles(paths, func(i int) func(*trace.Session, *trace.Episode) {
		ff := &fileFold{a: stream.NewAnalyzer(threshold), sweep: analysis.NewSweep(nil)}
		folds[i] = ff
		return func(s *trace.Session, e *trace.Episode) {
			analyzeEpisode(ff.a, s, e)
			ff.sweep.Add(e.Dur())
		}
	})
	if err != nil {
		return nil, err
	}
	var out []*fileFold
	for i, l := range loads {
		if l.Session == nil {
			continue
		}
		ff := folds[i]
		ff.s, ff.diag = l.Session, l.Diag
		ff.st = ff.a.Stats(ff.s, ff.diag)
		ff.st.Elapsed = l.Elapsed
		if fi, err := os.Stat(l.Health.Path); err == nil {
			ff.st.Bytes = fi.Size()
		}
		out = append(out, ff)
	}
	return out, nil
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	threshold := fs.Duration("threshold", 100e6, "perceptibility threshold")
	fs.Parse(args)
	th := trace.Dur(*threshold)

	all, err := foldFiles(fs.Args(), th)
	if err != nil {
		return err
	}
	// Every tally is integral, so merging in argument order gives the
	// same output at any -jobs.
	var pop [2]engine.Population
	sweep := analysis.NewSweep(nil)
	for _, ff := range all {
		s, st := ff.s, ff.st
		inEps := 0.0
		if e2e := s.E2E(); e2e > 0 {
			inEps = float64(st.InEpisode) / float64(e2e)
		}
		fmt.Printf("%s/%d: E2E %v, in-episode %.1f%%, episodes <%v: %d, traced: %d, >=%v: %d, GCs: %d, samples: %d\n",
			s.App, s.ID, s.E2E(), inEps*100, s.FilterThreshold, s.ShortCount,
			st.Episodes, th, st.Perceptible, ff.diag.GCs, ff.diag.Ticks)
		pop[0].Merge(&st.All)
		pop[1].Merge(&st.Long)
		sweep.Merge(ff.sweep)
	}

	trigAll, trigLong := pop[0].Trigger, pop[1].Trigger
	fmt.Printf("\ntriggers (all):          input %.1f%%  output %.1f%%  async %.1f%%  unspecified %.1f%%\n",
		trigAll.Frac(analysis.TriggerInput)*100, trigAll.Frac(analysis.TriggerOutput)*100,
		trigAll.Frac(analysis.TriggerAsync)*100, trigAll.Frac(analysis.TriggerUnspecified)*100)
	fmt.Printf("triggers (perceptible):  input %.1f%%  output %.1f%%  async %.1f%%  unspecified %.1f%%\n",
		trigLong.Frac(analysis.TriggerInput)*100, trigLong.Frac(analysis.TriggerOutput)*100,
		trigLong.Frac(analysis.TriggerAsync)*100, trigLong.Frac(analysis.TriggerUnspecified)*100)

	locAll, locLong := pop[0].Location(), pop[1].Location()
	fmt.Printf("location (all):          library %.1f%%  app %.1f%%  |  gc %.1f%%  native %.1f%%\n",
		locAll.Library*100, locAll.App*100, locAll.GC*100, locAll.Native*100)
	fmt.Printf("location (perceptible):  library %.1f%%  app %.1f%%  |  gc %.1f%%  native %.1f%%\n",
		locLong.Library*100, locLong.App*100, locLong.GC*100, locLong.Native*100)

	concAll, _ := pop[0].Concurrency()
	concLong, _ := pop[1].Concurrency()
	fmt.Printf("concurrency:             all %.2f  perceptible %.2f runnable threads\n", concAll, concLong)

	cAll, cLong := pop[0].Causes(), pop[1].Causes()
	fmt.Printf("causes (all):            blocked %.1f%%  wait %.1f%%  sleep %.1f%%  runnable %.1f%%\n",
		cAll.Blocked*100, cAll.Waiting*100, cAll.Sleeping*100, cAll.Runnable*100)
	fmt.Printf("causes (perceptible):    blocked %.1f%%  wait %.1f%%  sleep %.1f%%  runnable %.1f%%\n",
		cLong.Blocked*100, cLong.Waiting*100, cLong.Sleeping*100, cLong.Runnable*100)

	// The HCI literature disagrees on where "perceptible" begins;
	// show the sensitivity.
	fmt.Println("\nthreshold sensitivity (Shneiderman 100ms; Dabrowski/Munson 150/195ms; MacKenzie/Ware 225ms):")
	for _, p := range sweep.Points() {
		fmt.Printf("  >=%-8v %6d episodes (%5.2f%%)  %6.1f per minute of in-episode time\n",
			p.Threshold, p.Episodes, p.Frac*100, p.PerMin)
	}
	return nil
}

// runReport runs the full study analysis — tables, figure data, and
// optionally SVG figures — over already-recorded traces, grouping the
// sessions into one application per app name, in first-seen argument
// order. Each file's episodes are analyzed as its release-mode build
// closes them, so no session is kept. It is how a self-trace is fed
// back through the complete pipeline ("profile the profiler"), but it
// works on any trace set.
func runReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	outDir := fs.String("out", "", "directory for SVG figures (empty = text only)")
	fs.Parse(args)
	closed, err := foldApps(fs.Args())
	if err != nil {
		return err
	}
	res := report.AnalyzeFolds(runCtx, closed, trace.DefaultPerceptibleThreshold, nil)
	fmt.Print(report.FormatAll(res))
	fmt.Printf("analyzed %d traced episodes across %d application(s)\n", res.TotalEpisodes(), len(res.Apps))
	if *outDir == "" {
		return nil
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	figs := report.Figures(res)
	for name, svg := range figs {
		if err := obs.WriteFileAtomic(filepath.Join(*outDir, name), []byte(svg), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "lagalyzer: wrote %d figures to %s\n", len(figs), *outDir)
	return nil
}

// foldApps loads each trace in release mode into its own engine fold
// at the paper's threshold, the per-file fold lagreport -traces runs,
// and returns the closed folds of the usable files in argument order.
func foldApps(paths []string) ([]*engine.AppFold, error) {
	folds := make([]*engine.AppFold, len(paths))
	loads, err := loadFiles(paths, report.FoldHook(folds, trace.DefaultPerceptibleThreshold))
	if err != nil {
		return nil, err
	}
	var closed []*engine.AppFold
	for i, l := range loads {
		if l.Session != nil {
			folds[i].CloseSession(l.Session)
			closed = append(closed, folds[i])
		}
	}
	return closed, nil
}

// foldPatterns pools the patterns of the traces' folds. Every pattern
// tally is an integer, so the set is the one classifying the held
// sessions gives, less the member episodes.
func foldPatterns(paths []string) (*patterns.Set, error) {
	closed, err := foldApps(paths)
	if err != nil {
		return nil, err
	}
	return engine.Finish(runCtx, "", closed).Pooled, nil
}

func runTimeline(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	svgOut := fs.String("svg", "", "write SVG to this file (default: text timeline to stdout)")
	columns := fs.Int("columns", 100, "text timeline width")
	fs.Parse(args)
	sessions, err := loadSessions(fs.Args())
	if err != nil {
		return err
	}
	for _, s := range sessions {
		if *svgOut != "" {
			if err := obs.WriteFileAtomic(*svgOut, []byte(viz.Timeline(s)), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *svgOut)
			continue
		}
		fmt.Print(viz.TimelineText(s, *columns))
	}
	return nil
}

func runStream(args []string) error {
	fs := flag.NewFlagSet("stream", flag.ExitOnError)
	follow := fs.Bool("follow", false, "tail one growing trace file: poll for appended records, resume at the last complete record, stop at the end record, -follow-idle, or SIGINT")
	poll := fs.Duration("poll", 500*time.Millisecond, "poll interval in -follow mode")
	followIdle := fs.Duration("follow-idle", 0, "in -follow mode, stop after this long without new bytes (0 = wait for the end record or SIGINT)")
	fs.Parse(args)
	args = fs.Args()
	if *follow {
		if len(args) != 1 {
			return fmt.Errorf("stream -follow takes exactly one trace file")
		}
		return followOne(args[0], *poll, *followIdle)
	}
	all, err := foldFiles(args, 0)
	if err != nil {
		return err
	}
	for _, ff := range all {
		printStreamStats(ff.st)
	}
	return nil
}

func printStreamStats(st *stream.Stats) {
	fmt.Printf("%s/%d: E2E %v, %d episodes (+%d short), %d perceptible, mean %.1fms max %.1fms\n",
		st.App, st.SessionID, st.E2E, st.Episodes, st.ShortCount, st.Perceptible,
		st.Durations.Mean(), st.Durations.Max)
	trig, loc := st.All.Trigger, st.All.Location()
	conc, _ := st.All.Concurrency()
	fmt.Printf("  triggers: input %.0f%% output %.0f%% async %.0f%% unspecified %.0f%%  |  gc %.1f%% native %.1f%%  |  %.2f runnable threads\n",
		trig.Frac(analysis.TriggerInput)*100, trig.Frac(analysis.TriggerOutput)*100,
		trig.Frac(analysis.TriggerAsync)*100, trig.Frac(analysis.TriggerUnspecified)*100,
		loc.GC*100, loc.Native*100, conc)
	fmt.Printf("  decoded %d records (%.2f MB) in %v — %.0f records/s, %.1f MB/s\n",
		st.Records, float64(st.Bytes)/1e6, st.Elapsed.Round(time.Millisecond),
		st.RecordsPerSec(), st.BytesPerSec()/1e6)
}

// followOne tails a growing trace file the way a live profiler writes
// one: decode what is there, then poll for appended bytes and resume
// exactly where the last complete record ended (a partial record at
// the tail simply stays buffered until the writer completes it). The
// records drive a release-mode session build, so each episode is
// analyzed as it closes. That is incremental on text only: the v2
// reader buffers its whole input, so a v2 file is decoded when the
// follow ends. Stops at the trace's end record, after
// -follow-idle without growth, or on SIGINT — and prints the
// single-pass summary either way.
func followOne(path string, poll, idle time.Duration) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	start := time.Now()
	tr := &tailReader{f: f, poll: poll, idle: idle}
	cr := obs.NewCountingReader(tr, nil)
	lr, err := lila.NewReaderOptions(cr, lila.ReaderOptions{Salvage: salvageMode})
	if err != nil {
		return err
	}
	a := stream.NewAnalyzer(0)
	b := treebuild.NewBuilder(lr.Header(), treebuild.Options{Lenient: salvageMode, Episode: a.Episode})
	lastNote := time.Now()
	for {
		rec, err := lr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			if !salvageMode {
				return err
			}
			fmt.Fprintf(os.Stderr, "lagalyzer: %s: stream ended: %v\n", path, err)
			break
		}
		if err := b.Feed(rec); err != nil {
			return err
		}
		if rec.Type == lila.RecEnd {
			break
		}
		if time.Since(lastNote) >= 5*time.Second {
			fmt.Fprintf(os.Stderr, "lagalyzer: following %s: %.2f MB, final through trace time %v\n",
				path, float64(cr.Bytes())/1e6, trace.Dur(b.Watermark()))
			lastNote = time.Now()
		}
	}
	s, diag, err := b.Finish()
	if err != nil {
		return err
	}
	noteDamage(path, lila.SalvageOf(lr), diag)
	st := a.Stats(s, diag)
	st.Bytes = cr.Bytes()
	st.Elapsed = time.Since(start)
	printStreamStats(st)
	return nil
}

// tailReader turns a regular file into a follow stream: an EOF from
// the file is not the end, just "no new bytes yet" — sleep one poll
// interval and retry. It gives up (a real EOF) when the idle budget
// runs out or the run is interrupted.
type tailReader struct {
	f    *os.File
	poll time.Duration
	idle time.Duration
}

func (t *tailReader) Read(p []byte) (int, error) {
	var waited time.Duration
	for {
		n, err := t.f.Read(p)
		if n > 0 || (err != nil && err != io.EOF) {
			return n, err
		}
		if runCtx.Err() != nil {
			return 0, io.EOF
		}
		if t.idle > 0 && waited >= t.idle {
			return 0, io.EOF
		}
		sleep := t.poll
		if sleep <= 0 {
			sleep = 500 * time.Millisecond
		}
		time.Sleep(sleep)
		waited += sleep
	}
}

func runPatterns(args []string) error {
	fs := flag.NewFlagSet("patterns", flag.ExitOnError)
	rows := fs.Int("n", 30, "rows to show (0 = all)")
	sortKey := fs.String("sort", "count", "sort key: count, total, max, or avg")
	perceptibleOnly := fs.Bool("perceptible", false, "elide patterns without perceptible episodes")
	fs.Parse(args)
	key, err := browser.ParseSortKey(*sortKey)
	if err != nil {
		return err
	}
	set, err := foldPatterns(fs.Args())
	if err != nil {
		return err
	}
	b := browser.New(set)
	b.SetSort(key)
	b.SetPerceptibleOnly(*perceptibleOnly)
	fmt.Print(b.Table(*rows))
	fmt.Printf("unstructured episodes (not classified): %d\n", set.Unstructured)
	return nil
}

func runSketch(args []string) error {
	fs := flag.NewFlagSet("sketch", flag.ExitOnError)
	episode := fs.Int("episode", -1, "episode index (default: longest episode)")
	svgOut := fs.String("svg", "", "write SVG to this file (default: text sketch to stdout)")
	fs.Parse(args)
	sessions, err := loadSessions(fs.Args())
	if err != nil {
		return err
	}
	s := sessions[0]
	if len(s.Episodes) == 0 {
		return fmt.Errorf("session has no traced episodes")
	}
	var e *trace.Episode
	if *episode >= 0 {
		if *episode >= len(s.Episodes) {
			return fmt.Errorf("episode %d out of range (session has %d)", *episode, len(s.Episodes))
		}
		e = s.Episodes[*episode]
	} else {
		e = s.Episodes[0]
		for _, cand := range s.Episodes {
			if cand.Dur() > e.Dur() {
				e = cand
			}
		}
	}
	if *svgOut != "" {
		if err := obs.WriteFileAtomic(*svgOut, []byte(viz.Sketch(s, e, viz.SketchOptions{})), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (episode %d, %v)\n", *svgOut, e.Index, e.Dur())
		return nil
	}
	fmt.Print(viz.SketchText(s, e))
	return nil
}

func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	rows := fs.Int("n", 40, "entries to show (0 = all changed)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff needs exactly two traces (old, new)")
	}
	oldSet, err := foldPatterns(fs.Args()[:1])
	if err != nil {
		return err
	}
	newSet, err := foldPatterns(fs.Args()[1:])
	if err != nil {
		return err
	}
	res, err := diff.Compare(oldSet, newSet, diff.Options{})
	if err != nil {
		return err
	}
	fmt.Print(res.Format(*rows))
	return nil
}

// runConvert re-encodes traces between the LiLa formats. Conversion
// is record-preserving — the output carries exactly the record stream
// of the input — so every analysis produces identical output whichever
// encoding a study is stored in.
func runConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	to := fs.String("to", "v2", "output encoding: text or v2")
	compress := fs.Bool("compress", false, "DEFLATE-compress v2 blocks (only with -to v2)")
	outDir := fs.String("out", "", "output directory, keeping base names (default: alongside each input as <input>.<format>)")
	fs.Parse(args)
	format, err := lila.ParseFormat(*to)
	if err != nil {
		return err
	}
	wo := lila.WriteOptions{Format: format}
	if *compress {
		wo.Compression = lila.CompressionFlate
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no trace files given")
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	for i, path := range fs.Args() {
		if runCtx.Err() != nil {
			fmt.Fprintf(os.Stderr, "lagalyzer: interrupted — skipping %d remaining input(s)\n", fs.NArg()-i)
			lostInputs += fs.NArg() - i
			break
		}
		dst := path + "." + format.String()
		if *outDir != "" {
			dst = filepath.Join(*outDir, filepath.Base(path))
		}
		if err := convertOne(path, dst, wo); err != nil {
			if salvageMode {
				fmt.Fprintf(os.Stderr, "lagalyzer: %s: skipped: %v\n", path, err)
				lostInputs++
				continue
			}
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}

// convertOne re-encodes one trace, writing the output atomically (a
// temp file renamed into place) so an interrupted convert never leaves
// a truncated trace under the final name.
func convertOne(path, dst string, wo lila.WriteOptions) error {
	if same, err := filepath.Abs(dst); err == nil {
		if orig, err := filepath.Abs(path); err == nil && same == orig {
			return fmt.Errorf("output would overwrite the input")
		}
	}
	in, err := os.Open(path)
	if err != nil {
		return err
	}
	defer in.Close()
	r, err := lila.NewReaderOptions(in, lila.ReaderOptions{Salvage: salvageMode})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	w, err := lila.NewWriterOptions(&buf, r.Header(), wo)
	if err != nil {
		return err
	}
	records := 0
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := w.WriteRecord(rec); err != nil {
			return err
		}
		records++
	}
	if err := w.Close(); err != nil {
		return err
	}
	if rep := lila.SalvageOf(r); rep.Damaged() {
		fmt.Fprintf(os.Stderr, "lagalyzer: %s: salvage: %s\n", path, rep)
	}
	if err := obs.WriteFileAtomic(dst, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "lagalyzer: converted %s -> %s (%d records, %d bytes)\n",
		path, dst, records, buf.Len())
	return nil
}

func runBrowse(args []string) error {
	sessions, err := loadSessions(args)
	if err != nil {
		return err
	}
	set := engine.Classify(sessions)
	b := browser.New(set)
	fmt.Print(b.Table(20))
	fmt.Println(`commands: list [n] | sort count|total|max|avg | filter on|off | sel <i> | eps | next | prev | sketch | svg <file> | quit`)

	in := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !in.Scan() {
			fmt.Println()
			return in.Err()
		}
		fields := strings.Fields(in.Text())
		if len(fields) == 0 {
			continue
		}
		arg := ""
		if len(fields) > 1 {
			arg = fields[1]
		}
		switch fields[0] {
		case "quit", "q", "exit":
			return nil
		case "list":
			n := 20
			if arg != "" {
				n, _ = strconv.Atoi(arg)
			}
			fmt.Print(b.Table(n))
		case "sort":
			key, err := browser.ParseSortKey(arg)
			if err != nil {
				fmt.Println(err)
				continue
			}
			b.SetSort(key)
			fmt.Print(b.Table(20))
		case "filter":
			b.SetPerceptibleOnly(arg == "on")
			fmt.Print(b.Table(20))
		case "sel":
			i, convErr := strconv.Atoi(arg)
			if convErr != nil {
				fmt.Println("sel needs a pattern index")
				continue
			}
			if err := b.Select(i); err != nil {
				fmt.Println(err)
				continue
			}
			fmt.Print(b.EpisodeList())
		case "eps":
			fmt.Print(b.EpisodeList())
		case "next":
			b.NextEpisode()
			if txt, ok := b.SketchText(); ok {
				fmt.Print(txt)
			}
		case "prev":
			b.PrevEpisode()
			if txt, ok := b.SketchText(); ok {
				fmt.Print(txt)
			}
		case "sketch":
			if txt, ok := b.SketchText(); ok {
				fmt.Print(txt)
			} else {
				fmt.Println("select a pattern first (sel <i>)")
			}
		case "svg":
			svg, ok := b.SketchSVG()
			if !ok {
				fmt.Println("select a pattern first (sel <i>)")
				continue
			}
			if arg == "" {
				fmt.Println("svg needs a file name")
				continue
			}
			if err := obs.WriteFileAtomic(arg, []byte(svg), 0o644); err != nil {
				fmt.Println(err)
				continue
			}
			fmt.Println("wrote", arg)
		default:
			fmt.Printf("unknown command %q\n", fields[0])
		}
	}
}
