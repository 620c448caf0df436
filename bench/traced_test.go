package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"lagalyzer/internal/obs"
)

// TestSelfTraceRoundTrip runs a small traced pass and checks that its
// self-trace loads back through `lagalyzer report` and that the layer
// spans account for nearly all of the pass.
func TestSelfTraceRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds lagalyzer")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/lagalyzer")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building lagalyzer: %v\n%s", err, out)
	}
	results := t.TempDir()
	r := &run{
		env:      &env{root: "..", bin: bin, results: results, seed: 1, sc: smokeScale},
		workload: "roundtrip",
		stamp:    "roundtrip",
		samples:  map[string][]float64{},
		layers:   map[string]float64{},
	}
	err := repeatPasses(context.Background(), r, 0, func(p *pass) error {
		suites, err := simulate(p, []string{"Jmol"}, 1, 1, 10)
		if err != nil {
			return err
		}
		render(p, analyze(p, suites))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("%d of %d checks failed: %v", r.failed, r.attempted, r.failures)
	}
	for _, f := range []string{"roundtrip.selftrace.lila", "roundtrip.layers.json"} {
		if _, err := os.Stat(filepath.Join(results, f)); err != nil {
			t.Error(err)
		}
	}
	if r.layers["engine.busy_ms"] <= 0 || r.layers["sim.records"] <= 0 {
		t.Errorf("layer values missing: %v", r.layers)
	}
	if u := r.layers["unattributed_pct"]; u < 0 || u > 15 {
		t.Errorf("unattributed_pct = %v, want within [0, 15]", u)
	}
}

func TestCoveredUnionsOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	parent := obs.SpanExport{Start: 0, Dur: 100 * ms}
	kids := []obs.SpanExport{
		{Start: 10 * ms, Dur: 30 * ms}, // 10-40
		{Start: 20 * ms, Dur: 30 * ms}, // 20-50, overlaps
		{Start: 90 * ms, Dur: 30 * ms}, // 90-120, clipped to 100
	}
	if got := covered(parent, kids); got != 50*ms {
		t.Errorf("covered = %v, want 50ms", got)
	}
}
