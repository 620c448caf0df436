package lagalyzer

import (
	"bytes"
	"strings"
	"testing"
)

// TestFacadeEndToEnd exercises the public API the way the README's
// quickstart does: simulate → serialize → reload → classify → analyze
// → visualize.
func TestFacadeEndToEnd(t *testing.T) {
	profile, err := ProfileByName("CrosswordSage")
	if err != nil {
		t.Fatal(err)
	}
	session, err := Simulate(SimConfig{Profile: profile, Seed: 5, SessionSeconds: 30})
	if err != nil {
		t.Fatal(err)
	}
	if session.App != "CrosswordSage" || len(session.Episodes) == 0 {
		t.Fatalf("unexpected session: app=%q episodes=%d", session.App, len(session.Episodes))
	}

	// Round trip through the v2 trace format.
	var buf bytes.Buffer
	if err := WriteSession(&buf, FormatV2, session); err != nil {
		t.Fatal(err)
	}
	reloaded, err := ReadSession(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(reloaded.Episodes) != len(session.Episodes) {
		t.Fatalf("round trip lost episodes: %d vs %d", len(reloaded.Episodes), len(session.Episodes))
	}

	// Classification and analyses.
	set := Classify([]*Session{reloaded})
	if len(set.Patterns) == 0 {
		t.Fatal("no patterns")
	}
	trig := Triggers([]*Session{reloaded}, PerceptibleThreshold, false)
	if trig.Total != len(reloaded.Episodes) {
		t.Errorf("trigger total = %d, want %d", trig.Total, len(reloaded.Episodes))
	}
	loc := Location([]*Session{reloaded}, PerceptibleThreshold, false)
	if loc.App+loc.Library == 0 {
		t.Error("location analysis found no Java samples")
	}
	if avg, n := Concurrency([]*Session{reloaded}, PerceptibleThreshold, false); n == 0 || avg <= 0 {
		t.Errorf("concurrency = %v over %d samples", avg, n)
	}
	if c := Causes([]*Session{reloaded}, PerceptibleThreshold, false); c.Samples == 0 {
		t.Error("cause analysis found no samples")
	}
	o := OverviewOf(&Suite{App: session.App, Sessions: []*Session{reloaded}}, PerceptibleThreshold)
	if o.Traced == 0 || o.E2ESeconds == 0 {
		t.Errorf("overview empty: %+v", o)
	}

	// Visualization and browsing.
	e := set.Patterns[0].First().Episode
	if svg := SketchSVG(reloaded, e); !strings.Contains(svg, "<svg") {
		t.Error("sketch SVG malformed")
	}
	if txt := SketchText(reloaded, e); !strings.Contains(txt, "dispatch") {
		t.Error("sketch text malformed")
	}
	b := NewBrowser(set)
	if b.Len() != len(set.Patterns) {
		t.Errorf("browser sees %d patterns, want %d", b.Len(), len(set.Patterns))
	}
}

func TestFacadeProfiles(t *testing.T) {
	if got := len(Profiles()); got != 14 {
		t.Errorf("Profiles() = %d, want 14", got)
	}
	if _, err := ProfileByName("NoSuchApp"); err == nil {
		t.Error("ProfileByName accepted an unknown app")
	}
}

func TestFacadeConstantsWired(t *testing.T) {
	if PerceptibleThreshold != Ms(100) {
		t.Errorf("PerceptibleThreshold = %v", PerceptibleThreshold)
	}
	if FilterThreshold != Ms(3) {
		t.Errorf("FilterThreshold = %v", FilterThreshold)
	}
	if KindGC.String() != "gc" || StateSleeping.String() != "sleeping" {
		t.Error("kind/state constants miswired")
	}
	if OccAlways.String() != "always" || TriggerOutput.String() != "output" {
		t.Error("occurrence/trigger constants miswired")
	}
}

func TestFacadeTriggerOf(t *testing.T) {
	root := &Interval{Kind: KindDispatch, Start: 0, End: Time(Ms(200))}
	async := &Interval{Kind: KindAsync, Class: "q.E", Method: "dispatch", Start: 0, End: Time(Ms(150))}
	async.Children = []*Interval{{Kind: KindPaint, Class: "p.P", Method: "paint", Start: Time(Ms(10)), End: Time(Ms(100))}}
	root.Children = []*Interval{async}
	e := &Episode{Root: root}
	if got := TriggerOf(e); got != TriggerOutput {
		t.Errorf("TriggerOf = %v, want output (repaint-manager reclassification)", got)
	}
	if Fingerprint(e) == "" {
		t.Error("empty fingerprint")
	}
}

func TestFacadeExtensions(t *testing.T) {
	profile, err := ProfileByName("FreeMind")
	if err != nil {
		t.Fatal(err)
	}
	session, err := Simulate(SimConfig{Profile: profile, Seed: 6, SessionSeconds: 30})
	if err != nil {
		t.Fatal(err)
	}

	if svg := TimelineSVG(session); !strings.Contains(svg, "<svg") {
		t.Error("timeline SVG malformed")
	}
	if txt := TimelineText(session, 80); !strings.Contains(txt, "FreeMind") {
		t.Error("timeline text malformed")
	}

	var buf bytes.Buffer
	if err := WriteSession(&buf, FormatV2, session); err != nil {
		t.Fatal(err)
	}
	st, err := AnalyzeStream(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Episodes != len(session.Episodes) {
		t.Errorf("stream episodes = %d, want %d", st.Episodes, len(session.Episodes))
	}

	ths := LiteratureThresholds()
	if len(ths) != 4 || ths[0] != Ms(100) {
		t.Errorf("literature thresholds = %v", ths)
	}
	// Mutating the copy must not affect the canonical slice.
	ths[0] = Ms(1)
	if LiteratureThresholds()[0] != Ms(100) {
		t.Error("LiteratureThresholds returned shared backing storage")
	}

	sweep := ThresholdSweep([]*Session{session}, nil)
	if len(sweep) != 4 {
		t.Fatalf("sweep has %d points", len(sweep))
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i].Episodes > sweep[i-1].Episodes {
			t.Error("sweep not monotone")
		}
	}

	// Perturbation through the facade.
	perturbed, err := Simulate(SimConfig{Profile: profile, Seed: 6, SessionSeconds: 30,
		Perturbation: &Perturbation{SlowdownFactor: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if perturbed.InEpisodeFrac() <= session.InEpisodeFrac() {
		t.Error("perturbation slowdown had no effect")
	}
}

// TestStudyPooledSetMatchesClassify: a study's pooled set and Classify
// of the same session are both built at the paper's 100 ms, so they
// compare, and agree on every pattern's tallies, perceptible count and
// occurrence.
func TestStudyPooledSetMatchesClassify(t *testing.T) {
	profile, err := ProfileByName("Jmol")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStudy(StudyConfig{Apps: []*Profile{profile}, SessionsPerApp: 1, Seed: 3, SessionSeconds: 30})
	if err != nil {
		t.Fatal(err)
	}
	session, err := Simulate(SimConfig{Profile: profile, Seed: 3, SessionSeconds: 30})
	if err != nil {
		t.Fatal(err)
	}
	pooled, classified := res.Apps[0].Pooled, Classify([]*Session{session})
	d, err := ComparePatterns(pooled, classified, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pooled.Patterns) == 0 || len(d.Entries) != len(pooled.Patterns) || d.Counts[DiffUnchanged] != len(d.Entries) ||
		d.OldPerceptible != d.NewPerceptible || d.OldPerceptible == 0 {
		t.Fatalf("%d pooled patterns, %d entries (%v), perceptible %d vs %d",
			len(pooled.Patterns), len(d.Entries), d.Counts, d.OldPerceptible, d.NewPerceptible)
	}
	for _, e := range d.Entries {
		o, n := e.Old, e.New
		if o.Count() != n.Count() || o.TotalLag() != n.TotalLag() ||
			o.PerceptibleCount() != n.PerceptibleCount() || o.Occurrence() != n.Occurrence() {
			t.Errorf("pattern %s: pooled %d/%v/%d %v, classified %d/%v/%d %v", o.ID(),
				o.Count(), o.TotalLag(), o.PerceptibleCount(), o.Occurrence(),
				n.Count(), n.TotalLag(), n.PerceptibleCount(), n.Occurrence())
		}
	}
}
