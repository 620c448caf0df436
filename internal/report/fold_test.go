package report

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/checkpoint"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// writeMultiEDT writes a GanttProject trace in which two event dispatch
// threads handle overlapping episodes: EDT-B's closes first although
// EDT-A's started first, so a release-mode build hands them over out of
// start order. Both trees get a copy of the GC that runs while they are
// open, which makes them tie for Figure 2's pick; the earlier start,
// EDT-A's, must win it.
func writeMultiEDT(t *testing.T, path string) {
	t.Helper()
	h, recs := multiEDT()
	var buf bytes.Buffer
	w, err := lila.NewWriter(&buf, lila.FormatText, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// multiEDT returns the header and records of writeMultiEDT's trace.
func multiEDT() (lila.Header, []*lila.Record) {
	ms := func(v float64) trace.Time { return trace.Time(trace.Ms(v)) }
	h := lila.Header{App: "GanttProject", GUIThread: 1, FilterThreshold: trace.DefaultFilterThreshold,
		SamplePeriod: 10 * trace.Millisecond}
	return h, []*lila.Record{
		{Type: lila.RecThread, Thread: 1, Name: "EDT-A"},
		{Type: lila.RecThread, Thread: 2, Name: "EDT-B"},
		{Type: lila.RecCall, Time: ms(0), Thread: 1, Kind: trace.KindDispatch},
		{Type: lila.RecCall, Time: ms(1), Thread: 1, Kind: trace.KindListener, Class: "a.A", Method: "on"},
		{Type: lila.RecCall, Time: ms(50), Thread: 2, Kind: trace.KindDispatch},
		{Type: lila.RecCall, Time: ms(51), Thread: 2, Kind: trace.KindPaint, Class: "b.B", Method: "paint"},
		{Type: lila.RecSample, Time: ms(60), Thread: 1, State: trace.StateRunnable,
			Stack: []trace.Frame{{Class: "a.A", Method: "on"}}},
		{Type: lila.RecSample, Time: ms(60), Thread: 2, State: trace.StateSleeping,
			Stack: []trace.Frame{{Class: "java.lang.Thread", Method: "sleep", Native: true}}},
		{Type: lila.RecGCStart, Time: ms(70)},
		{Type: lila.RecGCEnd, Time: ms(90)},
		{Type: lila.RecReturn, Time: ms(110), Thread: 2},
		{Type: lila.RecReturn, Time: ms(120), Thread: 2},
		{Type: lila.RecSample, Time: ms(150), Thread: 1, State: trace.StateBlocked,
			Stack: []trace.Frame{{Class: "a.A", Method: "on"}}},
		{Type: lila.RecReturn, Time: ms(190), Thread: 1},
		{Type: lila.RecReturn, Time: ms(200), Thread: 1},
		{Type: lila.RecEnd, Time: ms(1000)},
	}
}

// rendered is everything lagreport -traces writes about a study.
type rendered struct {
	text, markdown, html, health string
	figures                      map[string]string
}

func render(t *testing.T, res *StudyResult) rendered {
	t.Helper()
	health, err := json.Marshal(res.Health)
	if err != nil {
		t.Fatal(err)
	}
	return rendered{FormatAll(res), FormatExperimentsMarkdown(res), FormatHTML(res), string(health), Figures(res)}
}

// TestTraceDirFoldMatchesHeld is the fold path's equivalence guarantee:
// analyzing each episode as its file's release-mode build closes it
// renders byte for byte what loading whole sessions and analyzing the
// held suites renders — text, experiments.md, HTML, every figure, and
// the health ledger — over the damaged corpus plus a session whose
// episodes close out of start order, at any worker count, salvaging or
// not.
func TestTraceDirFoldMatchesHeld(t *testing.T) {
	dir := damagedCorpus(t)
	writeMultiEDT(t, filepath.Join(dir, "d_multiedt.lila"))
	ctx := context.Background()
	for _, salvage := range []bool{false, true} {
		o := LoadOptions{Salvage: salvage, Jobs: 1}
		suites, health, err := LoadTraceDirContext(ctx, dir, o)
		if err != nil {
			t.Fatal(err)
		}
		held := AnalyzeSuitesContext(ctx, suites, 0, nil)
		held.Health.Merge(health)
		want := render(t, held)
		if _, ok := want.figures["figure2_ganttproject_sketch.svg"]; !ok {
			t.Fatal("no Figure 2 from the multi-EDT GanttProject session")
		}
		for _, jobs := range []int{1, 2, 8} {
			o.Jobs = jobs
			res, err := AnalyzeTraceDirContext(ctx, dir, o, 0, nil)
			if err != nil {
				t.Fatalf("salvage %v, jobs %d: %v", salvage, jobs, err)
			}
			if got := render(t, res); !reflect.DeepEqual(got, want) {
				t.Errorf("salvage %v, jobs %d: fold path renders differently from the held sessions", salvage, jobs)
				for name, svg := range want.figures {
					if got.figures[name] != svg {
						t.Errorf("  %s differs", name)
					}
				}
			}
		}
	}
}

// TestTraceDirFoldAnalyzesOverBudget pins the fold path's over-budget
// behaviour: a session too large for a full build under the memory
// budget is analyzed like any other, because release mode keeps only
// what its open episodes can reach; the keep-sessions loader still
// degrades it to counts.
func TestTraceDirFoldAnalyzesOverBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := sim.Run(sim.Config{Profile: apps.GanttProject(), Seed: 17, SessionSeconds: 120})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lila.WriteSession(&buf, lila.FormatV2, s); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "GanttProject_0.lila"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	o := LoadOptions{Limits: lila.Limits{MaxSessionBytes: 1 << 20}}
	if _, health, _ := LoadTraceDirContext(context.Background(), dir, o); health == nil || len(health.Files) != 1 || !health.Files[0].DegradedToStream {
		t.Fatalf("keep-sessions load: health %+v, want the session degraded to counts", health)
	}
	res, err := AnalyzeTraceDirContext(context.Background(), dir, o, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Health.Degraded() {
		t.Errorf("fold path health %+v, want clean", res.Health)
	}
	if len(res.Apps) != 1 || res.TotalEpisodes() != len(s.Episodes) {
		t.Errorf("fold path analyzed %d apps, %d episodes; want 1, %d", len(res.Apps), res.TotalEpisodes(), len(s.Episodes))
	}
}

// TestTraceDirSpans checks the fold path's span shape: one app span
// per application with the engine phase and its merge and overview
// children. Classification ran in the load's file spans, as each
// episode closed, so the engine phase has no classify child.
func TestTraceDirSpans(t *testing.T) {
	tr := obs.NewTrace()
	if _, err := AnalyzeTraceDirContext(obs.WithTrace(context.Background(), tr), damagedCorpus(t),
		LoadOptions{Salvage: true}, 0, nil); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range tr.Summary() {
		counts[r.Path] += r.Count
	}
	for _, app := range []string{"CrosswordSage", "JEdit"} {
		for span, want := range map[string]int{"engine": 1, "engine/classify": 0, "engine/merge": 1, "engine/overview": 1} {
			if path := "study/app:" + app + "/" + span; counts[path] != want {
				t.Errorf("span %q count = %d, want %d (all: %v)", path, counts[path], want, counts)
			}
		}
	}
	if counts["load"] != 1 {
		t.Errorf("load span count = %d, want 1", counts["load"])
	}
}

// multiEDTSuite builds a GanttProject suite of n copies of
// writeMultiEDT's session, whose episodes close out of start order, and
// returns it held and as the merged, closed fold a study checkpoints:
// no simulated profile has a second event dispatch thread, so a study
// meets such sessions only through a checkpoint hit.
func multiEDTSuite(t *testing.T, n int) (*trace.Suite, *engine.AppFold) {
	t.Helper()
	h, recs := multiEDT()
	suite := &trace.Suite{App: h.App}
	folds := make([]*engine.AppFold, n)
	episode := FoldHook(folds, trace.DefaultPerceptibleThreshold)
	for id := range folds {
		h.SessionID = id
		held, _, err := treebuild.BuildRecords(h, recs)
		if err != nil {
			t.Fatal(err)
		}
		suite.Sessions = append(suite.Sessions, held)
		s, _, err := treebuild.BuildRecordsOptions(h, recs, treebuild.Options{Episode: episode(id)})
		if err != nil {
			t.Fatal(err)
		}
		folds[id].CloseSession(s)
		if id > 0 {
			folds[0].Merge(folds[id])
		}
	}
	return suite, folds[0]
}

// TestStudyFoldMatchesHeld is the simulated study's equivalence
// guarantee: folding each episode as its simulated session's
// release-mode build closes it, or finishing the checkpointed fold of
// those sessions, renders byte for byte what analyzing held sessions
// of the same configuration renders — text, experiments.md, HTML,
// every figure, and the health ledger — fresh and resumed, with the
// pools sequential or not, and for a resumed app whose sessions closed
// their episodes out of start order.
func TestStudyFoldMatchesHeld(t *testing.T) {
	ctx := context.Background()
	cfg := StudyConfig{
		Apps:           []*sim.Profile{apps.CrosswordSage(), apps.GanttProject()},
		SessionsPerApp: 2,
		Seed:           42,
		SessionSeconds: 20,
	}
	suites := make([]*trace.Suite, len(cfg.Apps))
	for i, p := range cfg.Apps {
		suites[i] = &trace.Suite{App: p.Name}
		for id := 0; id < cfg.SessionsPerApp; id++ {
			s, err := sim.Run(sim.Config{Profile: p, SessionID: id, Seed: cfg.Seed, SessionSeconds: cfg.SessionSeconds})
			if err != nil {
				t.Fatal(err)
			}
			suites[i].Sessions = append(suites[i].Sessions, s)
		}
	}
	heldRender := func(suites []*trace.Suite) rendered {
		held := AnalyzeSuitesContext(ctx, suites, 0, nil)
		held.Config = cfg
		return render(t, held)
	}
	check := func(name string, c StudyConfig, want rendered) {
		t.Helper()
		res, err := RunStudyContext(ctx, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := render(t, res); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: study renders differently from the held sessions", name)
			for fig, svg := range want.figures {
				if got.figures[fig] != svg {
					t.Errorf("  %s differs", fig)
				}
			}
		}
	}

	want := heldRender(suites)
	hits := obs.NewCounter("checkpoint_hits_total", "")
	for _, seq := range []bool{true, false} {
		c := cfg
		c.Sequential = seq
		check(fmt.Sprintf("sequential %v, no store", seq), c, want)
		c.CheckpointDir = t.TempDir()
		check(fmt.Sprintf("sequential %v, fresh", seq), c, want)
		before := hits.Value()
		check(fmt.Sprintf("sequential %v, resumed", seq), c, want)
		if got := hits.Value() - before; got != 2 {
			t.Errorf("sequential %v: resumed with %d checkpoint hits, want 2", seq, got)
		}
	}

	gantt, fold := multiEDTSuite(t, cfg.SessionsPerApp)
	want = heldRender([]*trace.Suite{suites[0], gantt})
	if _, ok := want.figures["figure2_ganttproject_sketch.svg"]; !ok {
		t.Fatal("no Figure 2 from the multi-EDT GanttProject sessions")
	}
	c := cfg
	st, err := checkpoint.Open(t.TempDir(), c.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("GanttProject", fold); err != nil {
		t.Fatal(err)
	}
	c.Checkpoint = st
	before := hits.Value()
	check("multi-EDT resume", c, want)
	if got := hits.Value() - before; got != 1 {
		t.Errorf("multi-EDT resume: %d checkpoint hits, want 1", got)
	}
}
