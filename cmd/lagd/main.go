// Command lagd is the supervised LagAlyzer analysis service: a
// long-lived HTTP daemon that accepts analysis jobs (simulated profile
// studies or recorded trace directories), runs them on a bounded
// worker pool with per-job deadlines, retries transient study and
// traces job failures with capped exponential backoff, sheds load with
// 429 + Retry-After when the queue or memory budget fills, isolates
// worker panics, and on SIGINT/SIGTERM drains in-flight jobs and
// checkpoints the rest so a restarted daemon picks up where it left
// off. While draining, /healthz answers 503 with a "draining" body so
// load balancers and distributed-study coordinators stop routing new
// work here.
//
// lagd nodes also serve as workers for distributed studies: a "shard"
// job runs one application (or loads one slice of a trace corpus) and
// exposes its mergeable partial state — checksum-framed — at
// /jobs/{id}/state for the coordinator (lagreport -workers) to
// collect. lagd runs a shard job once, whatever -retries says: the
// coordinator owns every further attempt.
//
// With -ingest (the default) lagd also accepts live LiLa record
// streams: POST /ingest/{app}/{session} consumes a chunked stream
// incrementally — salvage-decoded, memory-budgeted, slow-loris-proof —
// and folds it into per-window aggregates queryable mid-session at
// GET /ingest/stats. With -state, completed windows are journaled
// crash-safely under <state>/ingest, so a killed daemon restarts
// without double-counting; /readyz answers 503 with reasons while the
// queue is saturated, the ingest budget is exhausted, or drain has
// begun.
//
//	# stream a trace into the live aggregator and watch it
//	curl -sN -X POST --data-binary @session.lila \
//	  -H 'Content-Type: application/octet-stream' \
//	  localhost:8077/ingest/Jmol/7
//	curl -s localhost:8077/ingest/stats
//
// Usage:
//
//	lagd -addr :8077 -state /var/lib/lagd
//
//	# submit a study job
//	curl -s -X POST localhost:8077/jobs \
//	  -d '{"kind":"study","apps":["Jmol"],"sessions":2,"seed":7}'
//	# poll it
//	curl -s localhost:8077/jobs/job-1
//	# fetch the result
//	curl -s 'localhost:8077/jobs/job-1/result?format=text'
//	# run a distributed shard and fetch its partial state
//	curl -s -X POST localhost:8077/jobs \
//	  -d '{"kind":"shard","apps":["Jmol"],"sessions":2,"seed":7}'
//	curl -s localhost:8077/jobs/job-2/state -o shard.bin
//	# with -self-profile: fetch the job's own trace and analyze it
//	curl -s localhost:8077/jobs/job-1/selftrace -o job-1.lila
//	lagalyzer report job-1.lila
//
// Job lifecycle and HTTP access are logged via log/slog (-log-format
// text|json). /metrics serves the obs snapshot, or the Prometheus
// text exposition format with ?format=prom.
//
// Exit codes: 0 clean drain (every accepted job finished), 1 fatal
// error, 2 usage error, 3 partial (accepted jobs were checkpointed for
// the next instance rather than finished).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"path/filepath"

	"lagalyzer/internal/ingest"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/serve"
	"lagalyzer/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr        = flag.String("addr", ":8077", "HTTP listen address")
		workers     = flag.Int("workers", 2, "job worker pool size")
		queue       = flag.Int("queue", 16, "pending-job queue depth (full queue sheds with 429)")
		deadline    = flag.Duration("deadline", 2*time.Minute, "default per-job execution deadline")
		retries     = flag.Int("retries", 2, "retries granted to retryable study and traces job failures (0 = none); shard jobs run once, their coordinator owns every further attempt")
		grace       = flag.Duration("grace", 5*time.Second, "shutdown grace for in-flight jobs before their contexts are canceled")
		stateDir    = flag.String("state", "", "state directory for checkpoints and pending jobs (empty = no persistence)")
		memMB       = flag.Int64("mem-budget-mb", 0, "admission-control memory budget in MiB (0 = lila default)")
		jobs        = flag.Int("jobs", 0, "trace files decoded concurrently per trace job (0 = one per CPU, 1 = sequential)")
		logFormat   = flag.String("log-format", "text", "structured log encoding: text or json")
		selfProfile = flag.Bool("self-profile", false, "record each job's own pipeline spans as a LiLa v2 trace (GET /jobs/{id}/selftrace; persisted under -state/selftrace)")

		ingestOn     = flag.Bool("ingest", true, "serve live streaming ingestion (POST /ingest/{app}/{session}, GET /ingest/stats)")
		ingestWindow = flag.Duration("ingest-window", 10*time.Second, "aggregation window for streamed sessions (session-relative trace time)")
		ingestMemMB  = flag.Int64("ingest-mem-budget-mb", 0, "global memory budget for live ingest sessions in MiB (0 = 256)")
		ingestSessMB = flag.Int64("ingest-session-mb", 0, "per-session ingest memory budget in MiB; over-budget sessions degrade to stats-only, then are evicted (0 = 32)")
		ingestMax    = flag.Int("ingest-max-sessions", 0, "concurrent ingest session cap (0 = 1024)")
		ingestIdle   = flag.Duration("ingest-idle", 60*time.Second, "evict ingest sessions idle this long")
		ingestReadTO = flag.Duration("ingest-read-timeout", 30*time.Second, "per-chunk read deadline for ingest streams (slow-loris guard)")
	)
	profiler := obs.AddProfileFlags(flag.CommandLine)
	flag.Parse()

	var logger *slog.Logger
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fmt.Fprintf(os.Stderr, "lagd: unknown -log-format %q (want text or json)\n", *logFormat)
		return 2
	}

	stopProfiles, err := profiler.Start()
	if err != nil {
		return fatal(err)
	}
	defer stopProfiles()

	var ingestSrv *ingest.Server
	if *ingestOn {
		journalDir := ""
		if *stateDir != "" {
			journalDir = filepath.Join(*stateDir, "ingest")
		}
		ingestSrv, err = ingest.New(ingest.Config{
			WindowDur:     trace.Dur(*ingestWindow),
			MemoryBudget:  *ingestMemMB << 20,
			SessionBudget: *ingestSessMB << 20,
			MaxSessions:   *ingestMax,
			IdleTimeout:   *ingestIdle,
			ReadTimeout:   *ingestReadTO,
			JournalDir:    journalDir,
			Logger:        logger,
		})
		if err != nil {
			return fatal(err)
		}
	}

	srv, err := serve.New(serve.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
		MaxRetries:      maxRetries(*retries),
		ShutdownGrace:   *grace,
		StateDir:        *stateDir,
		MemoryBudget:    *memMB << 20,
		LoadJobs:        *jobs,
		SelfProfile:     *selfProfile,
		Logger:          logger,
		Ingest:          ingestSrv,
	})
	if err != nil {
		return fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()
	endpoints := "POST /jobs, GET /jobs/{id}, /metrics, /healthz, /readyz"
	if ingestSrv != nil {
		endpoints += ", POST /ingest/{app}/{session}, GET /ingest/stats"
	}
	fmt.Fprintf(os.Stderr, "lagd: serving on http://%s (%s)\n", ln.Addr(), endpoints)

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	select {
	case <-ctx.Done():
	case err := <-httpErr:
		return fatal(fmt.Errorf("http server: %w", err))
	}
	stopSignals()
	fmt.Fprintln(os.Stderr, "lagd: signal received — draining")

	// Flip the health signal before touching the listener: keep-alive
	// clients probing /healthz during the connection drain must see
	// 503 "draining", not a healthy 200.
	srv.BeginDrain()

	// Stop accepting connections first, then drain the job queue. The
	// whole shutdown is bounded by twice the grace (listener close plus
	// in-flight drain plus persistence).
	shutCtx, cancel := context.WithTimeout(context.Background(), 2**grace+10*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutCtx)

	checkpointed, err := srv.Shutdown(shutCtx)
	if err != nil {
		return fatal(err)
	}
	if checkpointed > 0 {
		fmt.Fprintf(os.Stderr, "lagd: drained with %d job(s) checkpointed for the next run; exiting 3\n", checkpointed)
		return 3
	}
	fmt.Fprintln(os.Stderr, "lagd: drained cleanly")
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "lagd:", err)
	return 1
}

// maxRetries maps -retries onto serve.Config.MaxRetries, whose zero
// value is the default: -retries 0 means none.
func maxRetries(retries int) int {
	if retries == 0 {
		return -1
	}
	return retries
}
