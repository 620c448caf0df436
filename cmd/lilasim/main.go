// Command lilasim generates synthetic LiLa latency traces by
// simulating interactive sessions of the study's 14 applications. It
// stands in for the LiLa profiler + real-application + human-driver
// combination of the paper (see DESIGN.md).
//
// Usage:
//
//	lilasim -list
//	lilasim -app Jmol -seconds 60 -seed 7 -o jmol.lila    (block-indexed v2, the default)
//	lilasim -app Jmol -compress -o jmol.lila              (DEFLATE-compressed v2 blocks)
//	lilasim -app GanttProject -session 2 -format text > gantt.lila.txt
//
// Exit codes: 0 success, 1 total failure, 2 usage error (the shared
// convention across lagalyzer, lagreport, and lilasim; the generator
// has no partial-success mode, so it never exits 3).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/obs/selftrace"
	"lagalyzer/internal/sim"
)

func main() {
	var (
		list        = flag.Bool("list", false, "list available application profiles and exit")
		app         = flag.String("app", "", "application profile to simulate (see -list)")
		session     = flag.Int("session", 0, "session id (varies the random stream)")
		seed        = flag.Uint64("seed", 42, "base random seed")
		seconds     = flag.Float64("seconds", 0, "session length override in seconds (0 = profile default)")
		format      = flag.String("format", "v2", "trace encoding: text or v2")
		compress    = flag.Bool("compress", false, "DEFLATE-compress v2 blocks (v2 format only)")
		out         = flag.String("o", "", "output file (default stdout)")
		short       = flag.Bool("materialize-short", false, "emit sub-3ms episodes as records instead of a count")
		selfProfile = flag.String("self-profile", "", "write a LiLa v2 trace of this run's own generate span to this file")
	)
	profiler := obs.AddProfileFlags(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := profiler.Start()
	if err != nil {
		fail(err)
	}
	defer stopProfiles()

	if *list {
		fmt.Println("Available application profiles (Table II of the paper):")
		for _, p := range apps.Catalog() {
			fmt.Printf("  %-14s v%-9s %6d classes  %s\n", p.Name, p.Version, p.Classes, p.Description)
		}
		return
	}
	if *app == "" {
		fmt.Fprintln(os.Stderr, "lilasim: -app is required (use -list to see profiles)")
		os.Exit(2)
	}
	profile, err := apps.ByName(*app)
	if err != nil {
		fail(err)
	}
	f, err := lila.ParseFormat(*format)
	if err != nil {
		fail(err)
	}
	wo := lila.WriteOptions{Format: f}
	if *compress {
		wo.Compression = lila.CompressionFlate
	}

	// With -self-profile the run is one "generate" span (records stream
	// from the simulator straight into the encoder), flushed as a LiLa
	// v2 trace after the output file is complete, so it never perturbs
	// the generated records.
	var selfTr *obs.Trace
	ctx := context.Background()
	if *selfProfile != "" {
		selfTr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, selfTr)
	}
	cfg := sim.Config{
		Profile:          profile,
		SessionID:        *session,
		Seed:             *seed,
		SessionSeconds:   *seconds,
		MaterializeShort: *short,
	}

	// Stream to a temp file in the target directory and rename on
	// success, so a killed lilasim never leaves a truncated trace under
	// the final name (tools downstream treat presence as completeness).
	w := os.Stdout
	var tmp *os.File
	if *out != "" {
		dir := filepath.Dir(*out)
		tmp, err = os.CreateTemp(dir, "."+filepath.Base(*out)+".tmp-*")
		if err != nil {
			fail(err)
		}
		defer os.Remove(tmp.Name()) // no-op after the rename
		w = tmp
	}
	_, endGen := obs.PhaseSpan(ctx, "generate")
	lw, err := lila.NewWriterOptions(w, cfg.Header(), wo)
	if err != nil {
		fail(err)
	}
	records := 0
	err = sim.Stream(cfg, func(r *lila.Record) error {
		records++
		return lw.WriteRecord(r)
	})
	if err == nil {
		err = lw.Close()
	}
	endGen()
	if err != nil {
		fail(err)
	}
	if tmp != nil {
		if err := tmp.Sync(); err != nil {
			fail(err)
		}
		if err := tmp.Close(); err != nil {
			fail(err)
		}
		if err := os.Chmod(tmp.Name(), 0o644); err != nil {
			fail(err)
		}
		if err := os.Rename(tmp.Name(), *out); err != nil {
			fail(err)
		}
	}
	if *selfProfile != "" {
		if err := selftrace.WriteFile(*selfProfile, selfTr, selftrace.Options{App: "lilasim", SessionID: *session}); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "lilasim: wrote self-trace to %s\n", *selfProfile)
	}
	fmt.Fprintf(os.Stderr, "lilasim: wrote %d records (%s/%d, %s format)\n", records, profile.Name, *session, f)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lilasim:", err)
	os.Exit(1)
}
