package report

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/faultinject"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/sim"
)

// damagedCorpus writes a small trace directory with one intact, one
// truncated, and one bit-flipped file and returns its path.
func damagedCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(name, app string, id int, format lila.Format, corrupt func([]byte) []byte) {
		t.Helper()
		p, err := apps.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.Run(sim.Config{Profile: p, SessionID: id, Seed: 11, SessionSeconds: 10})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := lila.WriteSession(&b, format, s); err != nil {
			t.Fatal(err)
		}
		data := []byte(b.String())
		if corrupt != nil {
			data = corrupt(data)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a_intact.lila", "JEdit", 0, lila.FormatV2, nil)
	write("b_trunc.lila", "CrosswordSage", 0, lila.FormatV2, func(b []byte) []byte {
		return faultinject.TruncateFrac(b, 0.6)
	})
	write("c_flip.lila", "CrosswordSage", 1, lila.FormatText, func(b []byte) []byte {
		return faultinject.FlipBits(b, 3, 8, 256, len(b))
	})
	return dir
}

// TestLoadTraceDirDamagedDefaults: the default loader skips files it
// cannot ingest strictly, records them in the health ledger, and keeps
// the study going on the survivors; Strict restores fail-fast.
func TestLoadTraceDirDamagedDefaults(t *testing.T) {
	dir := damagedCorpus(t)

	suites, health, err := LoadTraceDirContext(context.Background(), dir, LoadOptions{})
	if err != nil {
		t.Fatalf("default load over damaged dir: %v", err)
	}
	if health.SessionsSkipped == 0 || len(health.Files) == 0 {
		t.Errorf("health = %+v, want skipped sessions recorded", health)
	}
	if !health.Partial() {
		t.Error("whole-session loss not reported as partial")
	}
	found := false
	for _, s := range suites {
		if s.App == "JEdit" {
			found = true
		}
	}
	if !found {
		t.Errorf("intact JEdit session lost; suites = %v", suites)
	}

	if _, _, err := LoadTraceDirContext(context.Background(), dir, LoadOptions{Strict: true}); err == nil {
		t.Error("Strict load over damaged dir succeeded")
	}
}

// TestSalvagedStudyDeterministicAcrossWorkers is the byte-identical
// sequential-vs-parallel guarantee extended over a salvaged corpus
// analyzed as it loads: the rendered study — Health section included —
// must not depend on the load's worker count, because every health
// field is a deterministic function of the input bytes and the folds
// merge in path order.
func TestSalvagedStudyDeterministicAcrossWorkers(t *testing.T) {
	dir := damagedCorpus(t)

	study := func(jobs int) string {
		res, err := AnalyzeTraceDirContext(context.Background(), dir, LoadOptions{Salvage: true, Jobs: jobs}, 0, nil)
		if err != nil {
			t.Fatalf("salvage study: %v", err)
		}
		return FormatAll(res)
	}

	seq := study(1)
	if !strings.Contains(seq, "Health: inputs lost or degraded") {
		t.Fatalf("salvaged study has no Health section:\n%s", seq)
	}
	if !strings.Contains(seq, "salvage:") {
		t.Errorf("Health section reports no salvage:\n%s", seq)
	}
	for _, jobs := range []int{2, 8} {
		if par := study(jobs); par != seq {
			t.Errorf("study with %d workers differs from sequential:\nseq:\n%s\npar:\n%s", jobs, seq, par)
		}
	}
}
