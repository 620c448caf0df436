package report

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/stats"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// fullStudy runs the study once (one session per app to keep tests
// fast) and caches it for all tests in the package.
var fullStudy = sync.OnceValues(func() (*StudyResult, error) {
	return RunStudy(StudyConfig{Seed: 2026, SessionsPerApp: 1})
})

func study(t *testing.T) *StudyResult {
	t.Helper()
	res, err := fullStudy()
	if err != nil {
		t.Fatalf("RunStudy: %v", err)
	}
	return res
}

func TestStudyCoversAllApplications(t *testing.T) {
	res := study(t)
	if len(res.Apps) != 14 {
		t.Fatalf("%d apps, want 14", len(res.Apps))
	}
	names := apps.Names()
	for _, name := range names {
		if _, ok := res.AppByName(name); !ok {
			t.Errorf("missing app %s", name)
		}
	}
	if _, ok := res.AppByName("NoSuchApp"); ok {
		t.Error("AppByName invented an app")
	}
	if len(res.Rows) != 15 || res.Rows[14].App != "Mean" {
		t.Errorf("rows should be 14 apps + Mean, got %d (%q last)", len(res.Rows), res.Rows[len(res.Rows)-1].App)
	}
}

// TestTable3Shape checks every application's overview against the
// paper's Table III within generous bands: the substrate is a
// simulator, so we validate calibration, not measurement.
func TestTable3Shape(t *testing.T) {
	res := study(t)
	for _, row := range res.Rows[:14] {
		paper, ok := PaperRowFor(row.App)
		if !ok {
			t.Fatalf("no paper row for %s", row.App)
		}
		within := func(metric string, got, want, relTol float64) {
			t.Helper()
			if want == 0 {
				return
			}
			if math.Abs(got-want) > relTol*want {
				t.Errorf("%s: %s = %.1f, paper %.1f (tol ±%.0f%%)", row.App, metric, got, want, relTol*100)
			}
		}
		within("E2E", row.E2ESeconds, paper.E2E, 0.15)
		within("InEps%", row.InEpsFrac*100, paper.InEpsPct, 0.35)
		within("<3ms", row.Short, paper.Short, 0.20)
		within(">=3ms", row.Traced, paper.Traced, 0.30)
		within(">=100ms", row.Perceptible, paper.Long, 0.55)
		within("Long/min", row.LongPerMin, paper.LongPerMin, 0.55)
		within("Dist", row.Dist, paper.Dist, 0.75)
	}
}

// TestOrderingInvariants checks the qualitative statements Table III
// supports: which application is worst/best per metric.
func TestOrderingInvariants(t *testing.T) {
	res := study(t)
	rows := map[string]int{}
	for i, r := range res.Rows[:14] {
		rows[r.App] = i
	}
	get := func(app string) struct{ lpm, short, descs, depth float64 } {
		r := res.Rows[rows[app]]
		return struct{ lpm, short, descs, depth float64 }{r.LongPerMin, r.Short, r.Descs, r.Depth}
	}
	// Jmol has the worst perceptible performance (Long/min).
	jmol := get("Jmol").lpm
	for app := range rows {
		if app != "Jmol" && app != "GanttProject" && get(app).lpm > jmol {
			t.Errorf("%s Long/min (%.0f) exceeds Jmol's (%.0f)", app, get(app).lpm, jmol)
		}
	}
	// Laoe produces by far the most sub-filter episodes.
	laoe := get("Laoe").short
	for app := range rows {
		if app != "Laoe" && get(app).short > laoe/2 {
			t.Errorf("%s short count (%.0f) too close to Laoe's (%.0f)", app, get(app).short, laoe)
		}
	}
	// GanttProject has the deepest, richest trees.
	gantt := get("GanttProject")
	for app := range rows {
		if app == "GanttProject" {
			continue
		}
		if get(app).descs >= gantt.descs || get(app).depth >= gantt.depth {
			t.Errorf("%s structure (descs %.1f depth %.1f) not below GanttProject (%.1f, %.1f)",
				app, get(app).descs, get(app).depth, gantt.descs, gantt.depth)
		}
	}
}

// TestSectionIVFindings checks the per-application standouts of the
// characterization (Figures 5-8) hold qualitatively.
func TestSectionIVFindings(t *testing.T) {
	res := study(t)
	fs := Findings(res)
	byID := map[string]Finding{}
	for _, f := range fs {
		byID[f.ID] = f
	}
	atLeast := func(id string, min float64) {
		t.Helper()
		f, ok := byID[id]
		if !ok {
			t.Fatalf("missing finding %s", id)
		}
		if f.Measured < min {
			t.Errorf("%s = %.2f, want >= %.2f (paper %.2f)", id, f.Measured, min, f.Paper)
		}
	}
	atMost := func(id string, max float64) {
		t.Helper()
		if f := byID[id]; f.Measured > max {
			t.Errorf("%s = %.2f, want <= %.2f (paper %.2f)", id, f.Measured, max, f.Paper)
		}
	}

	atLeast("fig3.episodes_in_top20pct_patterns", 0.60) // Pareto shape
	atLeast("fig4.freemind_never", 0.70)
	atLeast("fig4.gantt_always", 0.35)
	atLeast("fig5.arabeske.unspecified", 0.40)
	atLeast("fig5.jmol.output", 0.80)
	atLeast("fig5.argouml.input", 0.60)
	atLeast("fig5.findbugs.async", 0.25)
	atLeast("fig6.arabeske.gc", 0.40)
	atLeast("fig6.argouml.gc", 0.18)
	atMost("fig6.argouml.gc", 0.40)
	atLeast("fig6.jfreechart.native", 0.15)
	atLeast("fig6.euclide.library", 0.60)
	atLeast("fig6.jhotdraw.app", 0.90)
	atLeast("fig8.jedit.waiting", 0.15)
	atLeast("fig8.freemind.blocked", 0.06)
	atLeast("fig8.euclide.sleeping", 0.45)

	// Concurrency: above 1 only for the three background-thread apps.
	for _, a := range res.Apps {
		above := a.ConcurrencyAll > 1.05
		wantAbove := a.App == "Arabeske" || a.App == "FindBugs" || a.App == "NetBeans"
		if above != wantAbove {
			t.Errorf("%s concurrency %.2f: above-1 = %v, want %v", a.App, a.ConcurrencyAll, above, wantAbove)
		}
	}
	// The perceptible-panel GUI thread is runnable most of the time
	// everywhere (the paper zooms Figure 8 to 60% for a reason).
	for _, a := range res.Apps {
		if a.CausesAll.Runnable < 0.80 {
			t.Errorf("%s all-episode runnable share %.2f unexpectedly low", a.App, a.CausesAll.Runnable)
		}
	}
}

func TestStudyScale(t *testing.T) {
	res := study(t)
	// One session per app ≈ a quarter of the paper's ~250k episodes.
	if n := res.TotalEpisodes(); n < 40000 || n > 100000 {
		t.Errorf("total episodes = %d, want ~62k for 1 session/app", n)
	}
}

func TestFiguresRendered(t *testing.T) {
	res := study(t)
	figs := Figures(res)
	want := []string{
		"figure1_sketch.svg", "figure2_ganttproject_sketch.svg", "figure3_pattern_cdf.svg",
		"figure4_occurrence.svg", "figure5_triggers_all.svg", "figure5_triggers_long.svg",
		"figure6_location_all.svg", "figure6_location_long.svg",
		"figure7_concurrency_all.svg", "figure7_concurrency_long.svg",
		"figure8_causes_all.svg", "figure8_causes_long.svg",
	}
	for _, name := range want {
		svg, ok := figs[name]
		if !ok {
			t.Errorf("missing figure %s", name)
			continue
		}
		if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "</svg>") {
			t.Errorf("%s is not an SVG document", name)
		}
	}
}

func TestFigure1SketchReproducesThePaper(t *testing.T) {
	s, e := Figure1Episode()
	if err := s.Validate(); err != nil {
		t.Fatalf("figure 1 session invalid: %v", err)
	}
	if e.Dur() != trace.Ms(1705) {
		t.Errorf("episode duration %v, want 1705ms", e.Dur())
	}
	gc := e.Root.FindKind(trace.KindGC)
	if gc == nil || gc.Dur() != trace.Ms(466) {
		t.Fatalf("GC interval wrong: %v", gc)
	}
	nat := e.Root.FindKind(trace.KindNative)
	if nat == nil || nat.Dur() != trace.Ms(843) {
		t.Fatalf("native interval wrong: %v", nat)
	}
	// The sampling gap must be wider than the GC interval itself.
	if n := len(s.TicksIn(gc.Start, gc.End)); n != 0 {
		t.Errorf("%d samples during GC", n)
	}
	if n := len(s.TicksIn(nat.Start, nat.End)); n > 5 {
		t.Errorf("sampling gap should cover almost the whole native call; %d ticks inside", n)
	}
	svg := Figure1SVG()
	for _, want := range []string{"JToolBar", "DrawLine", "Figure 1"} {
		if !strings.Contains(svg, want) {
			t.Errorf("figure 1 SVG missing %q", want)
		}
	}
}

// TestFigure2DeepNesting takes Figure 2 the way the study does: a
// release-mode GanttProject session folds into an engine.AppFold, and
// the finished fold's Deepest holds the episode.
func TestFigure2DeepNesting(t *testing.T) {
	fold := engine.NewAppFold(0)
	cfg := sim.Config{Profile: apps.GanttProject(), Seed: 7, SessionSeconds: 60}
	held, err := sim.RunOptions(cfg, treebuild.Options{Episode: fold.Episode})
	if err != nil {
		t.Fatal(err)
	}
	fold.CloseSession(held)
	s := engine.Finish(context.Background(), held.App, []*engine.AppFold{fold}).Deepest
	if s == nil {
		t.Fatal("the fold has no figure 2 episode")
	}
	e := s.Episodes[0]
	if e.Root.Depth() < 9 {
		t.Errorf("figure 2 episode depth = %d, want >= 9 (deep paint nesting)", e.Root.Depth())
	}
	if e.Root.Descendants() < 12 {
		t.Errorf("figure 2 episode descendants = %d, want >= 12", e.Root.Descendants())
	}
	if s.App != "GanttProject" {
		t.Errorf("session app = %q", s.App)
	}
}

func TestTextRenderings(t *testing.T) {
	res := study(t)
	all := FormatAll(res)
	for _, want := range []string{
		"Table II", "Table III", "Figure 3", "Figure 4", "Figure 5",
		"Figure 6", "Figure 7", "Figure 8", "GanttProject", "Jmol",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("FormatAll missing %q", want)
		}
	}
	md := FormatExperimentsMarkdown(res)
	for _, want := range []string{"# EXPERIMENTS", "fig5.jmol.output", "| Experiment |", "Table III"} {
		if !strings.Contains(md, want) {
			t.Errorf("experiments markdown missing %q", want)
		}
	}
	if !strings.Contains(FormatTable2(), "45367") {
		t.Error("Table II missing the NetBeans class count")
	}
}

func TestAnalyzeSuiteOnLoadedSessions(t *testing.T) {
	// AnalyzeSuitesContext must work for suites not produced by
	// RunStudy (e.g. loaded from trace files): build a tiny synthetic
	// suite.
	root := trace.NewInterval(trace.KindDispatch, "", "", 0, trace.Ms(150))
	root.AddChild(trace.NewInterval(trace.KindListener, "a.B", "on", 0, trace.Ms(100)))
	s := &trace.Session{
		App: "Loaded", GUIThread: 1, Start: 0, End: trace.Time(10 * trace.Second),
		Episodes: []*trace.Episode{{Index: 0, Thread: 1, Root: root}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	res := AnalyzeSuitesContext(context.Background(), []*trace.Suite{{App: "Loaded", Sessions: []*trace.Session{s}}}, 0, nil)
	if len(res.Apps) != 1 {
		t.Fatalf("analyzed %d apps, want 1 (health %+v)", len(res.Apps), res.Health)
	}
	a := res.Apps[0]
	if a.Profile != nil {
		t.Error("loaded suite should have no profile")
	}
	if a.Overview.Traced != 1 || a.Overview.Perceptible != 1 {
		t.Errorf("overview: %+v", a.Overview)
	}
	if a.TriggerLong.Total != 1 {
		t.Errorf("trigger total = %d", a.TriggerLong.Total)
	}
}

func TestRunStudyDeterminism(t *testing.T) {
	run := func() *StudyResult {
		res, err := RunStudy(StudyConfig{
			Apps:           []*sim.Profile{apps.CrosswordSage()},
			SessionsPerApp: 2,
			Seed:           99,
			SessionSeconds: 30,
			Sequential:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalEpisodes() != b.TotalEpisodes() {
		t.Errorf("episode counts differ: %d vs %d", a.TotalEpisodes(), b.TotalEpisodes())
	}
	if FormatTable3(a.Rows) != FormatTable3(b.Rows) {
		t.Error("identical configs produced different Table III rows")
	}
	if len(a.Apps[0].Pooled.Patterns) != len(b.Apps[0].Pooled.Patterns) {
		t.Error("pattern sets differ between identical runs")
	}
}

func TestPaperDataComplete(t *testing.T) {
	if len(PaperTable3) != 15 {
		t.Fatalf("PaperTable3 has %d rows, want 14 + Mean", len(PaperTable3))
	}
	for _, name := range apps.Names() {
		if _, ok := PaperRowFor(name); !ok {
			t.Errorf("PaperTable3 missing %s", name)
		}
	}
	if _, ok := PaperRowFor("Mean"); !ok {
		t.Error("PaperTable3 missing the Mean row")
	}
	for _, key := range []string{
		"fig3.episodes_in_top20pct_patterns", "fig5.jmol.output", "fig6.euclide.library",
		"fig7.all.runnable_threads", "fig8.euclide.sleeping",
	} {
		if _, ok := PaperFindings[key]; !ok {
			t.Errorf("PaperFindings missing %s", key)
		}
	}
}

func TestCDFSharesAreParetoLike(t *testing.T) {
	res := study(t)
	for _, a := range res.Apps {
		at20 := stats.ShareAt(a.CDF, 0.2)
		at100 := stats.ShareAt(a.CDF, 1.0)
		if math.Abs(at100-1) > 1e-9 {
			t.Errorf("%s: CDF does not reach 1 (%.3f)", a.App, at100)
		}
		if at20 < 0.2 {
			t.Errorf("%s: top 20%% of patterns cover only %.1f%% of episodes", a.App, at20*100)
		}
	}
}

func TestFormatHTML(t *testing.T) {
	res := study(t)
	page := FormatHTML(res)
	for _, want := range []string{
		"<!DOCTYPE html>", "</html>", "<svg", "Table III",
		"figure3_pattern_cdf.svg", "fig5.jmol.output", "GanttProject",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
	// All 12 figures embedded.
	if got := strings.Count(page, "<figure>"); got != 12 {
		t.Errorf("%d figures embedded, want 12", got)
	}
}

func TestLoadTraceDirAndAnalyzeSuites(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, app string, id int, format lila.Format) {
		p, err := apps.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.Run(sim.Config{Profile: p, SessionID: id, Seed: 3, SessionSeconds: 10})
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := lila.WriteSession(f, format, s); err != nil {
			t.Fatal(err)
		}
	}
	write("cs0.lila", "CrosswordSage", 0, lila.FormatV2)
	write("cs1.lila", "CrosswordSage", 1, lila.FormatText)
	write("je0.lila", "JEdit", 0, lila.FormatV2)

	suites, _, err := LoadTraceDirContext(context.Background(), dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(suites) != 2 {
		t.Fatalf("suites = %d, want 2", len(suites))
	}
	if suites[0].App != "CrosswordSage" || len(suites[0].Sessions) != 2 {
		t.Errorf("suite 0 = %s with %d sessions", suites[0].App, len(suites[0].Sessions))
	}
	if suites[1].App != "JEdit" || len(suites[1].Sessions) != 1 {
		t.Errorf("suite 1 = %s with %d sessions", suites[1].App, len(suites[1].Sessions))
	}

	res := AnalyzeSuitesContext(context.Background(), suites, 0, nil)
	if len(res.Apps) != 2 || len(res.Rows) != 3 {
		t.Fatalf("analyzed %d apps, %d rows", len(res.Apps), len(res.Rows))
	}
	if res.Rows[2].App != "Mean" {
		t.Errorf("last row = %q", res.Rows[2].App)
	}
	if res.Rows[0].Traced == 0 {
		t.Error("empty overview from loaded traces")
	}
	// The text renderers must work on loaded studies too.
	if !strings.Contains(FormatTable3(res.Rows), "CrosswordSage") {
		t.Error("Table III missing loaded app")
	}

	if _, _, err := LoadTraceDirContext(context.Background(), filepath.Join(dir, "nonexistent"), LoadOptions{}); err == nil {
		t.Error("missing directory accepted")
	}
	empty := t.TempDir()
	if _, _, err := LoadTraceDirContext(context.Background(), empty, LoadOptions{}); err == nil {
		t.Error("empty directory accepted")
	}
	// A non-trace file fails cleanly.
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "junk.txt"), []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadTraceDirContext(context.Background(), bad, LoadOptions{}); err == nil {
		t.Error("junk file accepted")
	}
}

// TestRunStudySequentialParallelIdentical is the engine's determinism
// guarantee surfaced at the study level: with a fixed seed, the
// parallel run must reproduce the sequential run exactly — same Table
// III rows, same pattern ordering, same pattern IDs — because each
// app's analysis is a function of its sessions alone, whatever order
// the pools finish in.
func TestRunStudySequentialParallelIdentical(t *testing.T) {
	run := func(sequential bool) *StudyResult {
		res, err := RunStudy(StudyConfig{
			Apps:           []*sim.Profile{apps.CrosswordSage(), apps.GanttProject()},
			SessionsPerApp: 2,
			Seed:           99,
			SessionSeconds: 30,
			Sequential:     sequential,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(true), run(false)

	if len(seq.Rows) != len(par.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(seq.Rows), len(par.Rows))
	}
	for i := range seq.Rows {
		if seq.Rows[i] != par.Rows[i] {
			t.Errorf("row %d differs:\nseq %+v\npar %+v", i, seq.Rows[i], par.Rows[i])
		}
	}
	for i, sa := range seq.Apps {
		pa := par.Apps[i]
		if sa.App != pa.App {
			t.Fatalf("app order differs at %d: %s vs %s", i, sa.App, pa.App)
		}
		if len(sa.Pooled.Patterns) != len(pa.Pooled.Patterns) {
			t.Fatalf("%s: pattern counts differ: %d vs %d",
				sa.App, len(sa.Pooled.Patterns), len(pa.Pooled.Patterns))
		}
		for j, sp := range sa.Pooled.Patterns {
			pp := pa.Pooled.Patterns[j]
			if sp.Canon != pp.Canon || sp.ID() != pp.ID() || sp.Count() != pp.Count() {
				t.Fatalf("%s pattern %d differs: %s %q (n=%d) vs %s %q (n=%d)",
					sa.App, j, sp.ID(), sp.Canon, sp.Count(), pp.ID(), pp.Canon, pp.Count())
			}
		}
		if sa.TriggerAll != pa.TriggerAll || sa.CausesAll != pa.CausesAll ||
			sa.LocationAll != pa.LocationAll || sa.ConcurrencyAll != pa.ConcurrencyAll {
			t.Errorf("%s: figure analyses differ between sequential and parallel", sa.App)
		}
	}
}
