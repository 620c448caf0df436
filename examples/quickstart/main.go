// Quickstart: simulate one interactive session, mine its episode
// patterns, characterize the perceptible lag, and render an episode
// sketch — the complete LagAlyzer pipeline in ~60 lines of API calls.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"lagalyzer"
)

func main() {
	// 1. Get a workload. Real LagAlyzer consumes LiLa traces of real
	// applications; this reproduction ships simulated equivalents of
	// the paper's 14 study applications.
	profile, err := lagalyzer.ProfileByName("CrosswordSage")
	if err != nil {
		log.Fatal(err)
	}
	session, err := lagalyzer.Simulate(lagalyzer.SimConfig{
		Profile:        profile,
		Seed:           2026,
		SessionSeconds: 120,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session: %s, %v end-to-end, %d traced episodes (+%d below the %v filter)\n",
		session.App, session.E2E(), len(session.Episodes), session.ShortCount, session.FilterThreshold)

	// 2. How often would a user notice? Episodes at or above 100 ms
	// are perceptible.
	long := session.PerceptibleEpisodes(lagalyzer.PerceptibleThreshold)
	fmt.Printf("perceptible episodes: %d\n\n", len(long))

	// 3. Mine patterns: equivalence classes on interval-tree
	// structure, ignoring timing and incidental GCs.
	set := lagalyzer.Classify([]*lagalyzer.Session{session})
	fmt.Printf("patterns: %d (covering %d episodes)\n", len(set.Patterns), set.Covered())
	for i, p := range set.Patterns {
		if i == 5 {
			break
		}
		fmt.Printf("  %-14s ×%-4d min %-8v avg %-8v max %-8v  %s\n",
			p.ID(), p.Count(), p.MinLag(), p.AvgLag(), p.MaxLag(), p.Occurrence())
	}

	// 4. Characterize: what triggered the episodes, and where did the
	// time go?
	trig := lagalyzer.Triggers([]*lagalyzer.Session{session}, lagalyzer.PerceptibleThreshold, false)
	fmt.Printf("\ntriggers: input %.0f%%, output %.0f%%, async %.0f%%, unspecified %.0f%%\n",
		trig.Frac(lagalyzer.TriggerInput)*100, trig.Frac(lagalyzer.TriggerOutput)*100,
		trig.Frac(lagalyzer.TriggerAsync)*100, trig.Frac(lagalyzer.TriggerUnspecified)*100)
	loc := lagalyzer.Location([]*lagalyzer.Session{session}, lagalyzer.PerceptibleThreshold, false)
	fmt.Printf("location: %.0f%% library / %.0f%% application code; %.1f%% GC, %.1f%% native\n",
		loc.Library*100, loc.App*100, loc.GC*100, loc.Native*100)

	// 5. Visualize the worst episode as an episode sketch (SVG with
	// hover tooltips; open it in any browser).
	worst := session.Episodes[0]
	for _, e := range session.Episodes {
		if e.Dur() > worst.Dur() {
			worst = e
		}
	}
	svg := lagalyzer.SketchSVG(session, worst)
	if err := os.WriteFile("quickstart_sketch.svg", []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nworst episode: #%d at %v (%v) — sketch written to quickstart_sketch.svg\n",
		worst.Index, worst.Start(), worst.Dur())
	fmt.Println()
	fmt.Print(lagalyzer.SketchText(session, worst))
}
