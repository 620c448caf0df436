package diff

import (
	"strings"
	"testing"

	"lagalyzer/internal/engine"
	"lagalyzer/internal/patterns"
	"lagalyzer/internal/trace"
)

// build constructs a session from (class, durationsMs) behaviour specs
// and classifies it.
func build(spec map[string][]float64) *patterns.Set {
	var eps []*trace.Episode
	var start trace.Time
	// Deterministic iteration order for reproducible sessions.
	keys := make([]string, 0, len(spec))
	for k := range spec {
		keys = append(keys, k)
	}
	for _, k := range keys {
		for _, d := range spec[k] {
			root := trace.NewInterval(trace.KindDispatch, "", "", start, trace.Ms(d))
			root.AddChild(trace.NewInterval(trace.KindListener, k, "on", start, trace.Ms(d/2)))
			eps = append(eps, &trace.Episode{Index: len(eps), Thread: 1, Root: root})
			start = start.Add(trace.Ms(d) + trace.Second)
		}
	}
	s := &trace.Session{App: "d", GUIThread: 1, Start: 0, End: start.Add(trace.Second), Episodes: eps}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return engine.Classify([]*trace.Session{s})
}

func TestCompareVerdicts(t *testing.T) {
	oldSet := build(map[string][]float64{
		"app.Stable":    {10, 12, 11},
		"app.Regressor": {20, 22},
		"app.Improver":  {300, 320},
		"app.Gone":      {50},
	})
	newSet := build(map[string][]float64{
		"app.Stable":    {11, 10, 12},
		"app.Regressor": {150, 160}, // slowed past the threshold
		"app.Improver":  {40, 45},   // fixed
		"app.Fresh":     {30},
	})
	res, err := Compare(oldSet, newSet, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[Regressed] != 1 || res.Counts[Improved] != 1 ||
		res.Counts[Appeared] != 1 || res.Counts[Disappeared] != 1 || res.Counts[Unchanged] != 1 {
		t.Fatalf("counts = %v", res.Counts)
	}
	// Severity ordering: the regression leads.
	if res.Entries[0].Verdict != Regressed || !strings.Contains(res.Entries[0].Canon, "Regressor") {
		t.Errorf("first entry = %+v", res.Entries[0])
	}
	reg := res.Entries[0]
	if reg.DeltaPerceptible != 2 {
		t.Errorf("regression DeltaPerceptible = %d, want 2", reg.DeltaPerceptible)
	}
	if reg.DeltaAvg <= 0 {
		t.Errorf("regression DeltaAvg = %v", reg.DeltaAvg)
	}
	if res.OldPerceptible != 2 || res.NewPerceptible != 2 {
		t.Errorf("perceptible totals: %d -> %d", res.OldPerceptible, res.NewPerceptible)
	}

	out := res.Format(0)
	for _, want := range []string{"regressed", "appeared", "disappeared", "improved", "app.Fresh", "perceptible episodes: 2 -> 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "app.Stable") {
		t.Error("unchanged pattern should not be listed")
	}
}

func TestCompareTolerances(t *testing.T) {
	oldSet := build(map[string][]float64{"app.A": {100}})
	newSet := build(map[string][]float64{"app.A": {101}})
	res, err := Compare(oldSet, newSet, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries[0].Verdict != Unchanged {
		t.Errorf("1ms shift classified as %v", res.Entries[0].Verdict)
	}
	// Tight tolerances flip it.
	res, err = Compare(oldSet, newSet, Options{RelTolerance: 0.001, AbsTolerance: trace.Dur(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries[0].Verdict != Regressed {
		t.Errorf("tight tolerance verdict = %v", res.Entries[0].Verdict)
	}
}

// TestCompareRejectsMismatchedThresholds: sets built at different
// thresholds do not compare; a fold's set at 100 ms compares with
// Classify's.
func TestCompareRejectsMismatchedThresholds(t *testing.T) {
	var eps []*trace.Episode
	root := trace.NewInterval(trace.KindDispatch, "", "", 0, trace.Ms(10))
	root.AddChild(trace.NewInterval(trace.KindListener, "app.A", "on", 0, trace.Ms(5)))
	eps = append(eps, &trace.Episode{Index: 0, Thread: 1, Root: root})
	s := &trace.Session{App: "d", GUIThread: 1, Start: 0, End: trace.Time(trace.Second), Episodes: eps}
	suite := &trace.Suite{App: "d", Sessions: []*trace.Session{s}}
	a := engine.Classify(suite.Sessions)
	if _, err := Compare(a, engine.Analyze(suite, trace.Ms(50)).Pooled, Options{}); err == nil {
		t.Error("sets at 100 ms and 50 ms compared")
	}
	if _, err := Compare(a, engine.Analyze(suite, trace.DefaultPerceptibleThreshold).Pooled, Options{}); err != nil {
		t.Errorf("sets at the same threshold: %v", err)
	}
}

func TestCompareFormatLimit(t *testing.T) {
	oldSet := build(map[string][]float64{"app.A": {10}, "app.B": {10}, "app.C": {10}})
	newSet := build(map[string][]float64{"app.D": {10}, "app.E": {10}, "app.F": {10}})
	res, err := Compare(oldSet, newSet, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Format(2)
	if !strings.Contains(out, "...") {
		t.Errorf("limited report should elide entries:\n%s", out)
	}
}

func TestNoChanges(t *testing.T) {
	a := build(map[string][]float64{"app.A": {10, 20}})
	b := build(map[string][]float64{"app.A": {11, 19}})
	res, err := Compare(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Format(0), "no pattern-level changes") {
		t.Error("quiet diff should say so")
	}
}

func TestVerdictString(t *testing.T) {
	names := map[Verdict]string{
		Unchanged: "unchanged", Improved: "improved", Regressed: "regressed",
		Appeared: "appeared", Disappeared: "disappeared",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("%d.String() = %q", v, v.String())
		}
	}
	if Verdict(9).String() != "verdict(9)" {
		t.Error("unknown verdict name")
	}
}
