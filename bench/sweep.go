package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"
)

// sweepPoint is one paper_study configuration of the scale sweep.
type sweepPoint struct {
	Sessions int       `json:"sessions"`
	Seconds  float64   `json:"seconds"` // 0 = profile defaults
	Episodes int       `json:"episodes"`
	WallS    []float64 `json:"wall_s"`
	MedianS  float64   `json:"median_s"`
}

var episodesRE = regexp.MustCompile(`analyzed (\d+) traced episodes`)

// runSweep reports how paper_study's wall time scales with the episode
// count: least-squares slope and R² over sessions {1,2,4} × seconds
// {120, 240, profile default}, three runs each. It is reported, not
// gated, and its times are raw.
func runSweep(ctx context.Context, e *env) error {
	var points []sweepPoint
	var xs, ys []float64
	for _, n := range []int{1, 2, 4} {
		for _, sec := range []float64{120, 240, 0} {
			pt := sweepPoint{Sessions: n, Seconds: sec}
			for rep := 0; rep < 3; rep++ {
				out := filepath.Join(e.scratch, "sweep-out")
				args := []string{"-seed", fmt.Sprint(e.seed), "-sessions", fmt.Sprint(n), "-out", out}
				if sec > 0 {
					args = append(args, "-seconds", fmt.Sprint(sec))
				}
				p, err := runCLI(ctx, e.bin, "lagreport", args...)
				os.RemoveAll(out)
				if err != nil {
					return err
				}
				m := episodesRE.FindSubmatch(p.stdout)
				if m == nil {
					return fmt.Errorf("lagreport printed no episode count")
				}
				pt.Episodes, _ = strconv.Atoi(string(m[1]))
				pt.WallS = append(pt.WallS, p.wall.Seconds())
			}
			pt.MedianS = median(pt.WallS)
			points = append(points, pt)
			xs = append(xs, float64(pt.Episodes))
			ys = append(ys, pt.MedianS)
			fmt.Fprintf(os.Stderr, "sweep: sessions %d seconds %g: %d episodes, %.3f s\n", n, sec, pt.Episodes, pt.MedianS)
		}
	}
	slope, intercept, r2 := linearFit(xs, ys)

	report := map[string]any{
		"machine":            machineFacts(e.root),
		"seed":               e.seed,
		"paper_study":        points,
		"wall_s_per_episode": slope,
		"wall_s_intercept":   intercept,
		"r2":                 r2,
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(e.results, 0o755); err != nil {
		return err
	}
	path := filepath.Join(e.results, fmt.Sprintf("sweep-seed%d-%s.json", e.seed, time.Now().UTC().Format("20060102T150405.000")))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("paper_study: wall_s = %.4g s + %.4g µs × episodes (R² %.4f)\n", intercept, slope*1e6, r2)
	fmt.Println("results:", path)
	return nil
}
