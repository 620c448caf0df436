package report

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"lagalyzer/internal/trace"
)

// TestParallelLoadByteIdentical is the loader half of the
// determinism guarantee: over a faultinject-damaged corpus in salvage
// mode, the parallel trace-directory loader must produce byte-identical
// text and HTML reports — and an identical health ledger — to the
// sequential loader, for any worker count. Results are merged in
// sorted path order, so completion order must never leak into output.
func TestParallelLoadByteIdentical(t *testing.T) {
	dir := damagedCorpus(t)

	render := func(jobs int) (text, html, health string) {
		t.Helper()
		suites, lh, err := LoadTraceDirContext(context.Background(), dir, LoadOptions{Salvage: true, Jobs: jobs})
		if err != nil {
			t.Fatalf("salvage load with jobs=%d: %v", jobs, err)
		}
		hj, err := json.Marshal(lh)
		if err != nil {
			t.Fatal(err)
		}
		res := AnalyzeSuitesContext(context.Background(), suites, 0, nil)
		res.Health.Merge(lh)
		return FormatAll(res), FormatHTML(res), string(hj)
	}

	wantText, wantHTML, wantHealth := render(1)
	if !strings.Contains(wantText, "Health") {
		t.Fatalf("sequential report over damaged corpus has no health section:\n%s", wantText)
	}
	for _, jobs := range []int{0, 2, 7} {
		text, html, health := render(jobs)
		if text != wantText {
			t.Errorf("jobs=%d text report differs from sequential", jobs)
		}
		if html != wantHTML {
			t.Errorf("jobs=%d HTML report differs from sequential", jobs)
		}
		if health != wantHealth {
			t.Errorf("jobs=%d health ledger differs from sequential:\nseq: %s\npar: %s", jobs, wantHealth, health)
		}
	}
}

// TestParallelStrictPathOrderError: under Strict, the parallel loader
// must surface the same error a sequential fail-fast scan reports —
// the first failing file in sorted path order — not whichever worker
// happened to fail first.
func TestParallelStrictPathOrderError(t *testing.T) {
	dir := damagedCorpus(t)

	_, _, seqErr := LoadTraceDirContext(context.Background(), dir, LoadOptions{Strict: true, Jobs: 1})
	if seqErr == nil {
		t.Fatal("strict sequential load over damaged corpus succeeded")
	}
	for _, jobs := range []int{0, 2, 7} {
		_, _, parErr := LoadTraceDirContext(context.Background(), dir, LoadOptions{Strict: true, Jobs: jobs})
		if parErr == nil {
			t.Fatalf("strict load with jobs=%d succeeded", jobs)
		}
		if parErr.Error() != seqErr.Error() {
			t.Errorf("jobs=%d strict error = %q, want sequential's %q", jobs, parErr, seqErr)
		}
	}
}

// TestLoadFilesPanicIsFileError: a panic in one file's episode hook is
// contained to that file — its FileHealth.Error, no session — while
// the other files still load, in path order, at one worker or four.
func TestLoadFilesPanicIsFileError(t *testing.T) {
	paths, err := ListTraceFiles(damagedCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	const bad = 2 // c_flip.lila, the file with episodes after salvage
	for _, jobs := range []int{1, 4} {
		var episodes [3]int
		loads := LoadFiles(context.Background(), paths, LoadOptions{Salvage: true, Jobs: jobs},
			func(i int) func(*trace.Session, *trace.Episode) {
				return func(*trace.Session, *trace.Episode) {
					if i == bad {
						panic("injected fault")
					}
					episodes[i]++
				}
			})
		if len(loads) != len(paths) {
			t.Fatalf("jobs=%d: %d loads for %d paths", jobs, len(loads), len(paths))
		}
		for i, l := range loads {
			if l.Health.Path != paths[i] {
				t.Errorf("jobs=%d: load %d is %q, want %q", jobs, i, l.Health.Path, paths[i])
			}
			if i == bad {
				if l.Session != nil || l.Health.Error != "panic: injected fault" {
					t.Errorf("jobs=%d: panicking file: session %v, error %q", jobs, l.Session != nil, l.Health.Error)
				}
			} else if l.Session == nil || l.Health.Error != "" {
				t.Errorf("jobs=%d: %s: session %v, error %q", jobs, paths[i], l.Session != nil, l.Health.Error)
			}
		}
		if loads[0].Session.App != "JEdit" || episodes[0] == 0 || loads[1].Session.App != "CrosswordSage" {
			t.Errorf("jobs=%d: apps %s (%d episodes), %s; want JEdit (some), CrosswordSage",
				jobs, loads[0].Session.App, episodes[0], loads[1].Session.App)
		}
	}
}
