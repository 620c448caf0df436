// Backgroundload: the FindBugs scenario of the paper (§IV-C, §IV-E) —
// a background thread loads a large project for ~3 minutes, competing
// with the GUI thread for the CPU and posting periodic progress-bar
// updates to the event queue.
//
// LagAlyzer surfaces this two ways:
//
//   - the concurrency analysis (Figure 7) reports more than one
//     runnable thread on average during episodes, and
//
//   - the trigger analysis (Figure 5) attributes a large share of
//     perceptible episodes to asynchronous events.
//
//     go run ./examples/backgroundload
package main

import (
	"fmt"
	"log"
	"strings"

	"lagalyzer"
)

func main() {
	profile, err := lagalyzer.ProfileByName("FindBugs")
	if err != nil {
		log.Fatal(err)
	}
	session, err := lagalyzer.Simulate(lagalyzer.SimConfig{Profile: profile, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	sessions := []*lagalyzer.Session{session}

	fmt.Printf("%s: %v session, %d traced episodes, %d perceptible\n",
		session.App, session.E2E(), len(session.Episodes),
		len(session.PerceptibleEpisodes(lagalyzer.PerceptibleThreshold)))

	// Concurrency: while the loader runs, it is runnable alongside
	// the GUI thread.
	all, _ := lagalyzer.Concurrency(sessions, lagalyzer.PerceptibleThreshold, false)
	long, _ := lagalyzer.Concurrency(sessions, lagalyzer.PerceptibleThreshold, true)
	fmt.Printf("avg runnable threads: %.2f (all episodes), %.2f (perceptible)\n", all, long)

	// Async share of perceptible episodes (the progress-bar updates).
	trig := lagalyzer.Triggers(sessions, lagalyzer.PerceptibleThreshold, true)
	fmt.Printf("perceptible triggers: async %.0f%%, input %.0f%%, output %.0f%%\n\n",
		trig.Frac(lagalyzer.TriggerAsync)*100, trig.Frac(lagalyzer.TriggerInput)*100,
		trig.Frac(lagalyzer.TriggerOutput)*100)

	// Find the progress-update pattern in the browser and show its
	// lag statistics — the paper notes GCs regularly land inside
	// these episodes.
	set := lagalyzer.Classify(sessions)
	b := lagalyzer.NewBrowser(set)
	b.SetPerceptibleOnly(true)
	for i, p := range b.Patterns() {
		if !strings.Contains(p.Canon, "ProgressUpdateEvent") {
			continue
		}
		if err := b.Select(i); err != nil {
			log.Fatal(err)
		}
		withGC := 0
		for _, ref := range p.Episodes {
			if ref.Episode.Root.HasKind(lagalyzer.KindGC) {
				withGC++
			}
		}
		fmt.Printf("progress-update pattern %s: %d episodes (%d with a GC inside), min %v avg %v max %v\n",
			p.ID(), p.Count(), withGC, p.MinLag(), p.AvgLag(), p.MaxLag())
		if txt, ok := b.SketchText(); ok {
			fmt.Println("\nfirst episode of the pattern:")
			fmt.Print(txt)
		}
		break
	}

	// Loader visibility in the samples: what is thread 2 doing at the
	// 60-second mark?
	ticks := session.TicksIn(lagalyzer.Time(60*1e9), lagalyzer.Time(61*1e9))
	if len(ticks) > 0 {
		if ts, ok := ticks[0].Thread(2); ok {
			fmt.Printf("\nloader thread at t=60s: %s\n  %s\n", ts.State,
				strings.ReplaceAll(ts.StackString(), "\n", "\n  "))
		}
	}
}
