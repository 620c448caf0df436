package serve

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/report"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
)

// TestShardStateV6Fixture: testdata/shard-v6.state is a "LAGSHRD6"
// study-shard state of CrosswordSage (1 session, seed 42, 10 s, at a
// 150 ms threshold) encoded while the pattern builder's wire form still carried the
// ablation switches. It decodes, and its fold finishes equal to a
// fresh one.
func TestShardStateV6Fixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "shard-v6.state"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeShardState(data)
	if err != nil {
		t.Fatal(err)
	}
	p := apps.CrosswordSage()
	cfg := report.StudyConfig{Apps: []*sim.Profile{p}, SessionsPerApp: 1, Seed: 42, SessionSeconds: 10,
		Threshold: 150 * trace.Millisecond, Sequential: true}
	if len(st.Folds) != 1 || cfg.CheckFold(p.Name, st.Folds[0]) != nil {
		t.Fatalf("state carries %d folds, or a fold of another configuration", len(st.Folds))
	}
	ctx := context.Background()
	fresh, err := report.StudyFold(ctx, cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := engine.Finish(ctx, p.Name, st.Folds), engine.Finish(ctx, p.Name, []*engine.AppFold{fresh}); !reflect.DeepEqual(got, want) {
		t.Error("the shipped fold finishes differently from a fresh one")
	}
}
