// Command lagreport reproduces the paper's full characterization
// study (Section IV): it simulates the 14 applications × 4 sessions,
// runs every analysis, prints the tables and figure data as text, and
// optionally writes the figures as SVG plus an EXPERIMENTS.md
// comparison against the paper's published numbers.
//
// Usage:
//
//	lagreport                         # full study, text output
//	lagreport -sessions 2 -seed 7     # scaled down
//	lagreport -out results/           # also write SVGs + experiments.md + report.html + runmeta.json
//	lagreport -traces dir/            # analyze recorded traces instead
//	lagreport -traces dir/ -salvage   # tolerate damaged traces (resync + lenient rebuild)
//	lagreport -traces dir/ -strict    # historical fail-fast: first bad file aborts
//	lagreport -workers http://w1:8080,http://w2:8080
//	                                  # distribute the study over lagd workers
//	lagreport -only table3,fig5      # subset of sections
//	lagreport -progress               # per-session progress + ETA on stderr
//	lagreport -phases                 # per-phase span summary on stderr
//	lagreport -debug-addr :6060       # live pprof + /metrics while running
//	lagreport -cpuprofile cpu.out     # also -memprofile, -trace
//	lagreport -self-profile self.lila # emit this run's own spans as a LiLa v2 trace
//
// With -out the study is also crash-safe: each completed application
// is checkpointed under <out>/.checkpoint, SIGINT/SIGTERM flush the
// completed part as a partial report, and rerunning with the same
// flags resumes from the checkpoints to byte-identical final output.
//
// With -workers the study (or -traces load) is sharded over the named
// lagd job servers and merged back to byte-identical output, with
// retries, hedging, worker ejection, and local fallback on exhausted
// shards (unrecoverable shards are itemized in the Health section).
// The checkpoint store under -out is shared with single-node runs:
// resuming a distributed study locally, or vice versa, reuses every
// completed app.
//
// Exit codes: 0 success, 1 total failure, 2 usage error, 3 partial
// success (the study completed but lost whole sessions or apps; see
// the Health section).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"lagalyzer/internal/dist"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/obs/selftrace"
	"lagalyzer/internal/report"
)

func main() {
	os.Exit(run())
}

// run is main's body with a return code, so deferred cleanups (profile
// writers, the debug server) execute before the process exits.
func run() int {
	var (
		sessions    = flag.Int("sessions", 4, "sessions per application")
		seed        = flag.Uint64("seed", 42, "base random seed")
		seconds     = flag.Float64("seconds", 0, "session length override in seconds (0 = profile defaults)")
		traces      = flag.String("traces", "", "analyze LiLa traces from this directory instead of simulating")
		salvage     = flag.Bool("salvage", false, "with -traces: salvage damaged trace files (drop damaged lines and blocks, rebuild leniently)")
		strict      = flag.Bool("strict", false, "with -traces: fail fast on the first unloadable trace file")
		jobs        = flag.Int("jobs", 0, "with -traces: trace files decoded concurrently (0 = one per CPU, 1 = sequential)")
		outDir      = flag.String("out", "", "directory for SVG figures, experiments.md, and runmeta.json (empty = text only)")
		only        = flag.String("only", "", "comma-separated sections: table2,table3,fig3..fig8,findings (empty = all)")
		progress    = flag.Bool("progress", false, "print per-session study progress with an ETA to stderr")
		phases      = flag.Bool("phases", false, "print the per-phase span summary to stderr after the run")
		debugAddr   = flag.String("debug-addr", "", "serve live pprof and /metrics JSON on this address while running")
		selfProfile = flag.String("self-profile", "", "write a LiLa v2 trace of this run's own pipeline spans to this file")
		workersFlag = flag.String("workers", "", "comma-separated lagd worker base URLs: shard the study (or -traces load) across them")
		hedgeAfter  = flag.Duration("hedge-after", 0, "with -workers: hedge a straggling shard on a second worker after this long (0 = no hedging)")
		noFallback  = flag.Bool("no-local-fallback", false, "with -workers: itemize exhausted shards as lost instead of re-running them locally")
	)
	profiler := obs.AddProfileFlags(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := profiler.Start()
	if err != nil {
		fail(err)
	}
	defer stopProfiles()

	if *debugAddr != "" {
		srv, err := obs.ServeDebug(*debugAddr, nil)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "lagreport: debug server on http://%s (/metrics, /debug/pprof/)\n", srv.Addr())
	}

	meta := obs.NewRunMeta("lagreport")
	flag.Visit(func(f *flag.Flag) { meta.Flags[f.Name] = f.Value.String() })

	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	// SIGINT/SIGTERM cancel the study context instead of killing the
	// process mid-write: completed apps are flushed as a partial report
	// (exit code 3), and with -out their checkpoints survive for the
	// next run to resume.
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	var progressW io.Writer
	if *progress {
		progressW = os.Stderr
	}

	// The out directory must exist before the study so the checkpoint
	// store can live under it from the first completed app.
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail(err)
		}
	}

	var coord *dist.Coordinator
	if *workersFlag != "" {
		if *strict {
			fail(fmt.Errorf("-strict is a single-node fail-fast mode; it cannot combine with -workers"))
		}
		var workers []string
		for _, w := range strings.Split(*workersFlag, ",") {
			if w = strings.TrimSpace(w); w != "" {
				workers = append(workers, w)
			}
		}
		coord, err = dist.New(dist.Options{
			Workers:         workers,
			HedgeAfter:      *hedgeAfter,
			NoLocalFallback: *noFallback,
		})
		if err != nil {
			fail(err)
		}
	}

	start := time.Now()
	var res *report.StudyResult
	if *traces != "" {
		opts := report.LoadOptions{
			Salvage: *salvage,
			Strict:  *strict,
			Jobs:    *jobs,
		}
		if coord != nil {
			res, err = coord.RunTraces(ctx, *traces, opts, 0, progressW)
		} else {
			res, err = report.AnalyzeTraceDirContext(ctx, *traces, opts, 0, progressW)
		}
	} else {
		cfg := report.StudyConfig{
			Seed:           *seed,
			SessionsPerApp: *sessions,
			SessionSeconds: *seconds,
			Progress:       progressW,
		}
		if *outDir != "" {
			cfg.CheckpointDir = filepath.Join(*outDir, ".checkpoint")
		}
		if coord != nil {
			res, err = coord.RunStudy(ctx, cfg)
		} else {
			res, err = report.RunStudyContext(ctx, cfg)
		}
	}
	if err != nil {
		if res == nil {
			fail(err)
		}
		// Canceled mid-study with survivors: flush everything completed
		// so the interruption costs no finished work.
		fmt.Fprintln(os.Stderr,
			"lagreport: interrupted — flushing partial results (rerun with the same flags to resume)")
	}
	elapsed := time.Since(start)

	sections := map[string]func() string{
		"table2": func() string { return "== Table II: applications ==\n" + report.FormatTable2() },
		"table3": func() string { return "== Table III (paper vs ours) ==\n" + report.FormatTable3Comparison(res.Rows) },
		"fig3":   func() string { return "== Figure 3 ==\n" + report.FormatFigure3(res) },
		"fig4":   func() string { return "== Figure 4 ==\n" + report.FormatFigure4(res) },
		"fig5":   func() string { return "== Figure 5 ==\n" + report.FormatFigure5(res) },
		"fig6":   func() string { return "== Figure 6 ==\n" + report.FormatFigure6(res) },
		"fig7":   func() string { return "== Figure 7 ==\n" + report.FormatFigure7(res) },
		"fig8":   func() string { return "== Figure 8 ==\n" + report.FormatFigure8(res) },
		"findings": func() string {
			return "== Section IV findings (paper vs ours) ==\n" + report.FormatFindings(report.Findings(res))
		},
	}
	order := []string{"table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "findings"}

	selected := map[string]bool{}
	if *only == "" {
		for _, s := range order {
			selected[s] = true
		}
	} else {
		for _, s := range strings.Split(*only, ",") {
			s = strings.TrimSpace(s)
			if _, ok := sections[s]; !ok {
				fail(fmt.Errorf("unknown section %q (want one of %s)", s, strings.Join(order, ",")))
			}
			selected[s] = true
		}
	}
	for _, s := range order {
		if selected[s] {
			fmt.Println(sections[s]())
		}
	}
	if res.Health.Degraded() {
		fmt.Println("== Health: inputs lost or degraded ==\n" + report.FormatHealth(res.Health))
	}
	fmt.Printf("analyzed %d traced episodes across %d applications in %v\n",
		res.TotalEpisodes(), len(res.Apps), elapsed.Round(time.Millisecond))
	fmt.Println("(the paper: ~250'000 episodes from 7.5 h of sessions analyzed in 15 minutes)")

	if *phases {
		fmt.Fprint(os.Stderr, "== phase summary ==\n"+tr.Format())
	}

	// The self-trace is written after every analysis result above is
	// final, so enabling it cannot perturb the study output.
	if *selfProfile != "" {
		if err := selftrace.WriteFile(*selfProfile, tr, selftrace.Options{App: "lagreport"}); err != nil {
			fail(err)
		}
		meta.SelfTrace = *selfProfile
		fmt.Fprintf(os.Stderr, "lagreport: wrote self-trace to %s (analyze with: lagalyzer report %s)\n",
			*selfProfile, *selfProfile)
	}

	if *outDir == "" {
		return exitCode(res)
	}
	figs := report.Figures(res)
	for name, svg := range figs {
		if err := obs.WriteFileAtomic(filepath.Join(*outDir, name), []byte(svg), 0o644); err != nil {
			fail(err)
		}
	}
	md := report.FormatExperimentsMarkdown(res)
	if err := obs.WriteFileAtomic(filepath.Join(*outDir, "experiments.md"), []byte(md), 0o644); err != nil {
		fail(err)
	}
	if err := obs.WriteFileAtomic(filepath.Join(*outDir, "report.html"), []byte(report.FormatHTMLFigures(res, figs)), 0o644); err != nil {
		fail(err)
	}
	if res.Health.Degraded() {
		meta.Health = res.Health
	}
	meta.Finish(tr, nil)
	if err := meta.WriteFile(filepath.Join(*outDir, "runmeta.json")); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %d figures, experiments.md, report.html, and runmeta.json to %s\n",
		len(figs), *outDir)
	return exitCode(res)
}

// exitCode maps a finished study to the process exit code: 3 when a
// whole unit of work (a session or an app) was lost, 0 otherwise.
func exitCode(res *report.StudyResult) int {
	if res.Health.Partial() {
		fmt.Fprintln(os.Stderr, "lagreport: partial results — some inputs were lost (see the Health section); exiting 3")
		return 3
	}
	return 0
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lagreport:", err)
	os.Exit(1)
}
