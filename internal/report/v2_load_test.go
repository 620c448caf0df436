package report

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/sim"
)

// crossFormatCorpus writes the same simulated study three times —
// text, v2, and flate-compressed v2 — with identical file names, and
// returns the three directory paths.
func crossFormatCorpus(t *testing.T) (textDir, v2Dir, v2cDir string) {
	t.Helper()
	root := t.TempDir()
	encodings := []struct {
		opts lila.WriteOptions
		dir  string
	}{
		{lila.WriteOptions{Format: lila.FormatText}, filepath.Join(root, "text")},
		{lila.WriteOptions{Format: lila.FormatV2}, filepath.Join(root, "v2")},
		{lila.WriteOptions{Format: lila.FormatV2, Compression: lila.CompressionFlate}, filepath.Join(root, "v2flate")},
	}
	for _, e := range encodings {
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, app := range []string{"CrosswordSage", "GanttProject"} {
		p, err := apps.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < 2; id++ {
			// 40-second sessions: long enough that record blocks (which
			// compress) dominate the string/stack tables (which do not),
			// giving the compression-ratio check a realistic corpus.
			s, err := sim.Run(sim.Config{Profile: p, SessionID: id, Seed: 17, SessionSeconds: 40})
			if err != nil {
				t.Fatal(err)
			}
			name := filepath.Base(p.Name) + "_" + string(rune('0'+id)) + ".lila"
			for _, e := range encodings {
				var buf bytes.Buffer
				if err := lila.WriteSessionOptions(&buf, e.opts, s); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(e.dir, name), buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return encodings[0].dir, encodings[1].dir, encodings[2].dir
}

// dirSize sums the corpus bytes under dir.
func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// TestCrossFormatByteIdenticalStudy pins the format-independence
// guarantee end to end: the same study stored as text, v2, and
// compressed v2 must render byte-identical text and HTML
// reports — and the compressed corpus must be at least 2x smaller than
// the raw v2 one while doing so. The compressed directory additionally
// loads at 16 jobs, which over its 4 files gives each file 4 block
// workers; that must change nothing.
func TestCrossFormatByteIdenticalStudy(t *testing.T) {
	textDir, v2Dir, v2cDir := crossFormatCorpus(t)

	render := func(dir string, o LoadOptions) (string, string) {
		t.Helper()
		suites, _, err := LoadTraceDirContext(context.Background(), dir, o)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		res := AnalyzeSuitesContext(context.Background(), suites, 0, nil)
		return FormatAll(res), FormatHTML(res)
	}
	wantText, wantHTML := render(textDir, LoadOptions{Jobs: 1})
	for _, tc := range []struct {
		dir  string
		opts LoadOptions
	}{
		{v2Dir, LoadOptions{Jobs: 1}},
		{v2cDir, LoadOptions{Jobs: 1}},
		{v2cDir, LoadOptions{Jobs: 16}},
	} {
		gotText, gotHTML := render(tc.dir, tc.opts)
		if gotText != wantText {
			t.Errorf("%s (jobs %d) text report differs from text-format baseline",
				filepath.Base(tc.dir), tc.opts.Jobs)
		}
		if gotHTML != wantHTML {
			t.Errorf("%s (jobs %d) HTML report differs from text-format baseline",
				filepath.Base(tc.dir), tc.opts.Jobs)
		}
	}

	raw, compressed := dirSize(t, v2Dir), dirSize(t, v2cDir)
	if compressed*2 > raw {
		t.Errorf("compressed corpus %d bytes, raw v2 %d: ratio %.2fx < 2x",
			compressed, raw, float64(raw)/float64(compressed))
	}
}

// TestV2BlockLossItemizedInStudyHealth corrupts one block of one v2
// trace and checks the study's health ledger itemizes exactly that
// block's records against exactly that file — per-block loss, not a
// resync scan, not a dead file.
func TestV2BlockLossItemizedInStudyHealth(t *testing.T) {
	for _, comp := range []lila.Compression{lila.CompressionNone, lila.CompressionFlate} {
		t.Run(comp.String(), func(t *testing.T) { testV2BlockLossItemized(t, comp) })
	}
}

func testV2BlockLossItemized(t *testing.T, comp lila.Compression) {
	dir := t.TempDir()
	p, err := apps.ByName("CrosswordSage")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Profile: p, SessionID: 0, Seed: 23, SessionSeconds: 10}
	s, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs, h, err := sim.Records(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := lila.NewV2WriterOptions(&buf, h, lila.V2WriterOptions{BlockRecords: 64, Compression: comp})
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
	data := buf.Bytes()

	v, err := lila.ParseV2(data, lila.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := v.Blocks()
	if len(blocks) < 4 {
		t.Fatalf("corpus too small: %d blocks", len(blocks))
	}
	target := blocks[len(blocks)/2]
	if comp == lila.CompressionFlate && !target.Compressed() {
		t.Fatal("target block did not compress; corpus too small for the test")
	}
	data[target.Offset+target.Length-1] ^= 0xff

	goodPath := filepath.Join(dir, "a_good.lila")
	badPath := filepath.Join(dir, "b_damaged.lila")
	var good bytes.Buffer
	if err := lila.WriteSession(&good, lila.FormatV2, s); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goodPath, good.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(badPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	suites, health, err := LoadTraceDirContext(context.Background(), dir, LoadOptions{Salvage: true, Jobs: 1})
	if err != nil {
		t.Fatalf("salvage load: %v", err)
	}
	if n := len(suites[0].Sessions); n != 2 {
		t.Fatalf("loaded %d sessions, want both (one salvaged)", n)
	}
	var fh *FileHealth
	for i := range health.Files {
		if health.Files[i].Path == badPath {
			fh = &health.Files[i]
		}
	}
	if fh == nil {
		t.Fatalf("damaged file not in health ledger: %+v", health.Files)
	}
	if fh.Salvage == nil {
		t.Fatal("damaged file has no salvage report")
	}
	if fh.Salvage.RecordsDropped != target.Records {
		t.Errorf("dropped %d records, want exactly the corrupt block's %d",
			fh.Salvage.RecordsDropped, target.Records)
	}
	if fh.Salvage.BytesSkipped != target.Length {
		t.Errorf("skipped %d bytes, want the block's %d", fh.Salvage.BytesSkipped, target.Length)
	}
	if goodFileListed := func() bool {
		for _, f := range health.Files {
			if f.Path == goodPath {
				return true
			}
		}
		return false
	}(); goodFileListed {
		t.Error("intact file appears in the damage ledger")
	}
}

// TestV2OverBudgetDegradesToStream: a v2 session over the memory
// budget trips the guard mid-decode, and the loader still falls back
// to the streaming analyzer for it, at one block worker and several
// (the single file takes all of Jobs).
func TestV2OverBudgetDegradesToStream(t *testing.T) {
	dir := t.TempDir()
	s, err := sim.Run(sim.Config{Profile: apps.GanttProject(), Seed: 17, SessionSeconds: 120})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lila.WriteSessionOptions(&buf, lila.WriteOptions{Format: lila.FormatV2, Compression: lila.CompressionFlate}, s); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "GanttProject_0.lila"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 4} {
		o := LoadOptions{Jobs: jobs, Limits: lila.Limits{MaxSessionBytes: 1 << 20}}
		// The only session degrades, so the load reports no loadable
		// session; the health ledger still comes back.
		_, health, _ := LoadTraceDirContext(context.Background(), dir, o)
		if health == nil || len(health.Files) != 1 || !health.Files[0].DegradedToStream || health.Files[0].Error != "" {
			t.Fatalf("jobs %d: health %+v, want one file degraded to stream", jobs, health)
		}
		if fh := health.Files[0]; fh.StreamEpisodes != len(s.Episodes) || fh.App != "GanttProject" {
			t.Errorf("jobs %d: stream fallback saw %d episodes of %q, want %d of GanttProject",
				jobs, fh.StreamEpisodes, fh.App, len(s.Episodes))
		}
	}
}
