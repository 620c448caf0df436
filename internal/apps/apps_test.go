package apps

import (
	"strings"
	"testing"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
)

func TestCatalogMatchesTable2(t *testing.T) {
	cat := Catalog()
	if len(cat) != 14 {
		t.Fatalf("catalog has %d profiles, want 14", len(cat))
	}
	// Exact Table II contents: name, version, class count.
	want := []struct {
		name    string
		version string
		classes int
	}{
		{"Arabeske", "2.0.1", 222},
		{"ArgoUML", "0.28", 5349},
		{"CrosswordSage", "0.3.5", 34},
		{"Euclide", "0.5.2", 398},
		{"FindBugs", "1.3.8", 3698},
		{"FreeMind", "0.8.1", 1909},
		{"GanttProject", "2.0.9", 5288},
		{"JEdit", "4.3pre16", 1150},
		{"JFreeChart", "1.0.13", 1667},
		{"JHotDraw", "7.1", 1146},
		{"Jmol", "11.6.21", 1422},
		{"Laoe", "0.6.03", 688},
		{"NetBeans", "6.7", 45367},
		{"SwingSet", "2", 131},
	}
	for i, w := range want {
		p := cat[i]
		if p.Name != w.name || p.Version != w.version || p.Classes != w.classes {
			t.Errorf("catalog[%d] = %s/%s/%d, want %s/%s/%d",
				i, p.Name, p.Version, p.Classes, w.name, w.version, w.classes)
		}
		if p.Description == "" {
			t.Errorf("%s has no description", p.Name)
		}
	}
}

func TestByNameAndNames(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil || p.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ByName("Eclipse"); err == nil {
		t.Error("ByName accepted an app outside the study")
	}
}

// TestProfilesAreRunnable simulates a short session of every profile
// and validates the resulting sessions structurally.
func TestProfilesAreRunnable(t *testing.T) {
	for _, p := range Catalog() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			s, err := sim.Run(sim.Config{Profile: p, Seed: 1, SessionSeconds: 30})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("session invalid: %v", err)
			}
			if len(s.Episodes) == 0 {
				t.Fatal("no traced episodes in 30 s")
			}
			if len(s.Ticks) < 1000 {
				t.Errorf("only %d sampling ticks in 30 s", len(s.Ticks))
			}
			for _, e := range s.Episodes {
				if e.Dur() < s.FilterThreshold {
					t.Fatalf("episode %d below the trace filter (%v)", e.Index, e.Dur())
				}
			}
		})
	}
}

// TestProfileInvariants checks structural properties of every profile
// definition (weights, distributions, windows).
func TestProfileInvariants(t *testing.T) {
	for _, p := range Catalog() {
		if p.SessionSeconds <= 0 || p.ShortPerSecond <= 0 {
			t.Errorf("%s: non-positive session length or short rate", p.Name)
		}
		if p.LibraryFrac < 0 || p.LibraryFrac > 1 {
			t.Errorf("%s: LibraryFrac %v outside [0,1]", p.Name, p.LibraryFrac)
		}
		if p.AppPackage == "" {
			t.Errorf("%s: no app package", p.Name)
		}
		var checkNode func(app string, n sim.Node)
		checkNode = func(app string, n sim.Node) {
			if n.Kind == trace.KindGC || n.Kind == trace.KindDispatch {
				t.Errorf("%s: template node with kind %v", app, n.Kind)
			}
			if n.Weight < 0 {
				t.Errorf("%s: negative node weight", app)
			}
			if n.Prob < 0 || n.Prob > 1 {
				t.Errorf("%s: node probability %v outside [0,1]", app, n.Prob)
			}
			mix := n.States.Blocked + n.States.Waiting + n.States.Sleeping
			if mix < 0 || mix > 1 {
				t.Errorf("%s: state mix sums to %v", app, mix)
			}
			for _, c := range n.Children {
				checkNode(app, c)
			}
		}
		for _, b := range p.UserBehaviors {
			if b.Weight <= 0 {
				t.Errorf("%s/%s: non-positive behavior weight", p.Name, b.Name)
			}
			if b.DurMs == nil {
				t.Fatalf("%s/%s: nil duration", p.Name, b.Name)
			}
			for _, n := range b.Nodes {
				checkNode(p.Name+"/"+b.Name, n)
			}
		}
		for _, tm := range p.Timers {
			if tm.PeriodMs == nil || tm.Behavior == nil {
				t.Fatalf("%s: malformed timer", p.Name)
			}
			if tm.ActiveTo != 0 && tm.ActiveTo <= tm.ActiveFrom {
				t.Errorf("%s: timer window [%v,%v] empty", p.Name, tm.ActiveFrom, tm.ActiveTo)
			}
			if tm.ActiveTo > p.SessionSeconds {
				t.Errorf("%s: timer window ends at %vs beyond the %vs session", p.Name, tm.ActiveTo, p.SessionSeconds)
			}
		}
		for _, bg := range p.Background {
			if bg.Duty < 0 || bg.Duty > 1 {
				t.Errorf("%s/%s: duty %v outside [0,1]", p.Name, bg.Name, bg.Duty)
			}
		}
	}
}

// TestProfileStandoutKnobs spot-checks that the paper's standout
// behaviours are actually wired into the profile definitions.
func TestProfileStandoutKnobs(t *testing.T) {
	arabeske, _ := ByName("Arabeske")
	foundExplicitGC := false
	for _, b := range arabeske.UserBehaviors {
		for _, n := range b.Nodes {
			if n.ExplicitGC {
				foundExplicitGC = true
			}
		}
	}
	if !foundExplicitGC {
		t.Error("Arabeske should call System.gc() (§IV-C)")
	}

	euclide, _ := ByName("Euclide")
	foundSleep := false
	for _, b := range euclide.UserBehaviors {
		for _, n := range b.Nodes {
			if n.States.Sleeping > 0.5 {
				foundSleep = true
				for _, f := range n.ExtraFrames {
					if strings.HasPrefix(f.Class, "com.apple.") {
						goto appleOK
					}
				}
				t.Error("Euclide sleep should point at Apple's combo-box code (§IV-E)")
			appleOK:
			}
		}
	}
	if !foundSleep {
		t.Error("Euclide should sleep on the EDT (§IV-E)")
	}

	jmol, _ := ByName("Jmol")
	if len(jmol.Timers) == 0 {
		t.Fatal("Jmol should animate via timers (§IV-C)")
	}
	for _, tm := range jmol.Timers {
		// The 40 ms repaint cadence is explicit in the paper.
		if got := tm.PeriodMs.Mean(); got != 40 {
			t.Errorf("Jmol timer period %v ms, want 40", got)
		}
		root := tm.Behavior.Nodes[0]
		if root.Kind != trace.KindAsync {
			t.Error("Jmol animation must arrive through the event queue (async)")
		}
		foundPaint := false
		for _, c := range root.Children {
			if c.Kind == trace.KindPaint {
				foundPaint = true
			}
		}
		if !foundPaint {
			t.Error("Jmol async must contain a paint (repaint-manager reclassification)")
		}
	}

	findbugs, _ := ByName("FindBugs")
	if len(findbugs.Background) == 0 || len(findbugs.Timers) == 0 {
		t.Error("FindBugs needs a loader thread and progress timer (§IV-C/E)")
	}
	loader := findbugs.Background[0]
	if span := loader.ActiveTo - loader.ActiveFrom; span < 150 || span > 240 {
		t.Errorf("FindBugs loader active for %vs, want ≈3 minutes", span)
	}

	jhotdraw, _ := ByName("JHotDraw")
	if jhotdraw.LibraryFrac > 0.1 {
		t.Errorf("JHotDraw LibraryFrac %v; §IV-D reports 96%% application code", jhotdraw.LibraryFrac)
	}

	netbeans, _ := ByName("NetBeans")
	if len(netbeans.Background) == 0 {
		t.Error("NetBeans needs background scanning threads (§IV-E)")
	}
}

// TestShortRatesMatchTable3 checks ShortPerSecond ≈ "<3ms"/E2E for
// every application (the calibration identity documented in the
// package comment).
func TestShortRatesMatchTable3(t *testing.T) {
	table := map[string]struct{ short, e2e float64 }{
		"Arabeske": {323605, 461}, "ArgoUML": {196247, 630},
		"CrosswordSage": {109547, 367}, "Euclide": {109572, 614},
		"FindBugs": {39254, 599}, "FreeMind": {325135, 524},
		"GanttProject": {126940, 523}, "JEdit": {117615, 502},
		"JFreeChart": {77720, 250}, "JHotDraw": {246836, 421},
		"Jmol": {110929, 449}, "Laoe": {1241198, 460},
		"NetBeans": {305177, 398}, "SwingSet": {219569, 384},
	}
	for _, p := range Catalog() {
		row := table[p.Name]
		want := row.short / row.e2e
		if got := p.ShortPerSecond; got < want*0.95 || got > want*1.05 {
			t.Errorf("%s: ShortPerSecond = %v, want ≈%v", p.Name, got, want)
		}
	}
}

// TestTriggerMixPerApp simulates each profile briefly and checks the
// dominant trigger class matches the paper's per-application story.
func TestTriggerMixPerApp(t *testing.T) {
	wantDominant := map[string]analysis.Trigger{
		"ArgoUML": analysis.TriggerInput, // 78 % input perceptible
		"Jmol":    analysis.TriggerOutput,
	}
	for name, want := range wantDominant {
		p, _ := ByName(name)
		seconds := 60.0
		if name == "Jmol" {
			seconds = p.SessionSeconds // the animation windows matter
		}
		s, err := sim.Run(sim.Config{Profile: p, Seed: 2, SessionSeconds: seconds})
		if err != nil {
			t.Fatal(err)
		}
		ts := engine.Analyze(&trace.Suite{Sessions: []*trace.Session{s}}, trace.DefaultPerceptibleThreshold).TriggerLong
		best, bestF := analysis.TriggerInput, -1.0
		for _, tr := range analysis.Triggers() {
			if f := ts.Frac(tr); f > bestF {
				best, bestF = tr, f
			}
		}
		if best != want {
			t.Errorf("%s: dominant perceptible trigger %v (%.0f%%), want %v", name, best, bestF*100, want)
		}
	}
}

func TestHelpers(t *testing.T) {
	chain := paintChain(0.6, []string{"a.A", "b.B", "c.C"})
	if chain.Class != "a.A" || chain.Kind != trace.KindPaint {
		t.Errorf("chain head = %+v", chain)
	}
	depth := 0
	n := &chain
	for {
		depth++
		var next *sim.Node
		for i := range n.Children {
			if n.Children[i].Class == "b.B" || n.Children[i].Class == "c.C" {
				next = &n.Children[i]
			}
		}
		if next == nil {
			break
		}
		n = next
	}
	if depth != 3 {
		t.Errorf("chain depth = %d, want 3", depth)
	}

	opt := optional(paint("x.X", 0.5), 0.25)
	if opt.Prob != 0.25 {
		t.Errorf("optional prob = %v", opt.Prob)
	}
	rep := repeated(paint("x.X", 0.5), 2, 5)
	if rep.Repeat == nil || rep.Repeat.MeanInt() != 3.5 {
		t.Errorf("repeated = %+v", rep.Repeat)
	}
	if got := native("n.N", "call", 0.1); got.Kind != trace.KindNative {
		t.Errorf("native kind = %v", got.Kind)
	}
	if got := async("a.A", 0.1); got.Kind != trace.KindAsync || got.Method != "dispatch" {
		t.Errorf("async = %+v", got)
	}
	if got := revealed("r.R"); got.Weight != 0.032 || got.Kind != trace.KindPaint {
		t.Errorf("revealed = %+v", got)
	}
	pp := pooledPaints([]string{"a.A", "b.B"}, 0.1, 3)
	if len(pp.ClassPool) != 2 || pp.Repeat.MeanInt() != 1.5 {
		t.Errorf("pooledPaints = %+v", pp)
	}
}
