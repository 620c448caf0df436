package ingest

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/trace"
)

// mountIngest wraps a server in the real route patterns.
func mountIngest(srv *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest/{app}/{session}", srv.HandleIngest)
	mux.HandleFunc("PUT /ingest/{app}/{session}", srv.HandleIngest)
	mux.HandleFunc("GET /ingest/stats", srv.HandleStats)
	return mux
}

// TestJournalKillResume is the crash-safety contract: a server killed
// without any shutdown (the WAL is fsynced record-by-record, so a
// SIGKILL loses nothing that was committed) must be replaceable by a
// new server over the same journal dir that recovers exactly the
// committed tables — no lost windows, no double-counting.
func TestJournalKillResume(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{WindowDur: goldenWindow, JournalDir: dir}

	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(mountIngest(srv1))
	for i, app := range []string{"Jmol", "CrosswordSage"} {
		d := delivery{app: app, session: "k1", body: encodeSession(t, lila.FormatText, app, uint64(11+i), 20)}
		if resp, _, err := postDelivery(t, hs1.Client(), hs1.URL, d); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("post %s: %v (%v)", app, err, resp)
		}
	}
	committed := srv1.Tables()
	hs1.Close()
	// SIGKILL simulation: srv1 is simply abandoned — no drain, no
	// journal rotation, no snapshot. Recovery must come from the WAL
	// alone.

	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart over the WAL: %v", err)
	}
	if got := srv2.Tables(); !reflect.DeepEqual(got, committed) {
		compareTables(t, got, committed)
		t.Fatal("recovered tables differ from the killed server's committed tables")
	}

	// The restarted server keeps ingesting and folds on top of the
	// recovered state.
	hs2 := httptest.NewServer(mountIngest(srv2))
	d := delivery{app: "Arabeske", session: "k2", body: encodeSession(t, lila.FormatText, "Arabeske", 99, 20)}
	if resp, _, err := postDelivery(t, hs2.Client(), hs2.URL, d); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("post after resume: %v (%v)", err, resp)
	}
	hs2.Close()
	afterResume := srv2.Tables()
	if afterResume.Apps["Jmol"] == nil || afterResume.Apps["Arabeske"] == nil {
		t.Fatalf("resumed tables lost an app: %+v", afterResume.Apps)
	}
	wantSessions := 0
	for _, at := range afterResume.Apps {
		wantSessions += at.Sessions
	}
	if wantSessions != 3 {
		t.Fatalf("resumed tables count %d sessions, want 3 (double-counting?)", wantSessions)
	}

	// Graceful shutdown rotates the WAL into a snapshot; a third
	// server over the snapshot+fresh-WAL must again see identical
	// tables.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if left, err := srv2.Shutdown(ctx); err != nil || left != 0 {
		t.Fatalf("shutdown: left=%d err=%v", left, err)
	}
	srv3, err := New(cfg)
	if err != nil {
		t.Fatalf("restart over the snapshot: %v", err)
	}
	defer srv3.Shutdown(context.Background())
	if got := srv3.Tables(); !reflect.DeepEqual(got, afterResume) {
		compareTables(t, got, afterResume)
		t.Fatal("post-rotation tables differ")
	}
}

// TestJournalTornTailTruncated: a torn final frame (the crash landed
// mid-append) is discarded on open instead of poisoning recovery, and
// every intact frame before it survives.
func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{WindowDur: goldenWindow, JournalDir: dir}

	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(mountIngest(srv1))
	d := delivery{app: "Jmol", session: "t1", body: encodeSession(t, lila.FormatText, "Jmol", 3, 20)}
	if resp, _, err := postDelivery(t, hs1.Client(), hs1.URL, d); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("post: %v (%v)", err, resp)
	}
	committed := srv1.Tables()
	hs1.Close()

	// Tear the tail: append half a frame header plus garbage.
	wal := filepath.Join(dir, journalName(0))
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0xFF, 0x00, 0x01, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("open over torn WAL: %v", err)
	}
	defer srv2.Shutdown(context.Background())
	if got := srv2.Tables(); !reflect.DeepEqual(got, committed) {
		t.Fatal("torn tail corrupted recovery")
	}
}

// TestJournalCorruptSnapshotRefused: a snapshot whose bytes no longer
// match the manifest's SHA-256 must fail loudly — silently serving
// half-recovered aggregates would be worse than refusing to start.
func TestJournalCorruptSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{WindowDur: goldenWindow, JournalDir: dir}

	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(mountIngest(srv1))
	d := delivery{app: "Jmol", session: "c1", body: encodeSession(t, lila.FormatText, "Jmol", 8, 15)}
	if resp, _, err := postDelivery(t, hs1.Client(), hs1.URL, d); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("post: %v (%v)", err, resp)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the snapshot the manifest points at.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snap string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snap-") {
			snap = filepath.Join(dir, e.Name())
		}
	}
	if snap == "" {
		t.Fatal("no snapshot written by rotation")
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := New(cfg); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// oldPatternTally is one pattern's tallies as journal versions 1 and
// 2 stored them, in a map keyed by canonical form.
type oldPatternTally struct {
	Hash        uint64
	Count       int
	Perceptible int
	LagTotal    trace.Dur
	LagMax      trace.Dur
}

// v1Aggregate is a window aggregate as a version 1 journal stored it:
// each tally field by field.
type v1Aggregate struct {
	Episodes, Perceptible, Unstructured, Treeless int

	Triggers, TriggersLong          [analysis.NumTriggers]int
	EpisodeTime, GCTime, NativeTime trace.Dur

	States                                           [4]int
	Samples, AppSamples, LibSamples, Runnable, Ticks int

	LagHist          [NumLagBuckets]int
	LagTotal, LagMax trace.Dur
	Patterns         map[string]*oldPatternTally
}

// v2Aggregate is a window aggregate as a version 2 journal stored it:
// the population pair, and the patterns as a tally map.
type v2Aggregate struct {
	Pop          [2]engine.Population
	Unstructured int
	Treeless     int
	LagHist      [NumLagBuckets]int
	LagMax       trace.Dur
	Patterns     map[string]*oldPatternTally
}

// oldEntry is a WAL entry of an older version, its aggregate a
// *v1Aggregate or a *v2Aggregate.
type oldEntry[A any] struct {
	Key     WindowKey
	Agg     A
	AppName string
	App     *AppTally
}

// oldWAL names generation gen's WAL in a journal of an older version.
func oldWAL(version int, gen uint64) string {
	if version == 1 {
		return fmt.Sprintf("journal-%d.wal", gen)
	}
	return fmt.Sprintf("journal-v%d-%d.wal", version, gen)
}

// oldJournal returns the files of a journal of an older version
// holding one window and one app tally: its WAL alone when killed
// before any rotation, or else a snapshot, its manifest and the next
// generation's WAL, as a graceful rotation leaves them.
func oldJournal[A any](t *testing.T, version int, agg A, rotated bool) map[string][]byte {
	t.Helper()
	key, app := WindowKey{App: "Jmol", Window: 3}, &AppTally{Sessions: 1, Short: 9, E2E: trace.Ms(20000)}
	var wal []byte
	for _, e := range []oldEntry[A]{{Key: key, Agg: agg}, {AppName: "Jmol", App: app}} {
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(&e); err != nil {
			t.Fatal(err)
		}
		wal = binary.LittleEndian.AppendUint32(wal, uint32(payload.Len()))
		wal = binary.LittleEndian.AppendUint32(wal, crc32.ChecksumIEEE(payload.Bytes()))
		wal = append(wal, payload.Bytes()...)
	}
	if !rotated {
		return map[string][]byte{oldWAL(version, 0): wal}
	}
	var snap bytes.Buffer
	tables := struct {
		Windows map[WindowKey]A
		Apps    map[string]*AppTally
	}{map[WindowKey]A{key: agg}, map[string]*AppTally{"Jmol": app}}
	if err := gob.NewEncoder(&snap).Encode(&tables); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap.Bytes())
	sha := hex.EncodeToString(sum[:])
	mf := fmt.Sprintf(`{"snapshot":"snap-%s.gob","sha256":"%s","gen":1}`, sha[:16], sha)
	if version > 1 {
		mf = fmt.Sprintf(`{"version":%d,"snapshot":"snap-%s.gob","sha256":"%s","gen":1}`, version, sha[:16], sha)
	}
	return map[string][]byte{"manifest.json": []byte(mf), "snap-" + sha[:16] + ".gob": snap.Bytes(), oldWAL(version, 1): wal}
}

// TestJournalVersion1MovedAside: a journal written in version 1's or
// version 2's format, before and after a graceful rotation, is
// detected on open and moved aside whole with its bytes intact, the
// event is logged, and the server starts with empty tables — never
// zero-filled tallies decoded from the old entries.
func TestJournalVersion1MovedAside(t *testing.T) {
	patterns := map[string]*oldPatternTally{"(d(l))": {Hash: 1, Count: 5}}
	v1 := &v1Aggregate{Episodes: 7, Perceptible: 2, EpisodeTime: trace.Ms(900), LagTotal: trace.Ms(900),
		LagMax: trace.Ms(400), Samples: 30, Ticks: 40, Patterns: patterns}
	v1.Triggers[analysis.TriggerInput] = 7
	v1.LagHist[4] = 7
	v2 := &v2Aggregate{Unstructured: 2, LagMax: trace.Ms(400), Patterns: patterns}
	v2.Pop[0].Trigger.Total = 7
	v2.LagHist[4] = 7
	layouts := map[string]struct {
		version int
		files   func(t *testing.T) map[string][]byte
	}{
		"killed before any rotation":           {1, func(t *testing.T) map[string][]byte { return oldJournal(t, 1, v1, false) }},
		"rotated at shutdown":                  {1, func(t *testing.T) map[string][]byte { return oldJournal(t, 1, v1, true) }},
		"version 2 killed before any rotation": {2, func(t *testing.T) map[string][]byte { return oldJournal(t, 2, v2, false) }},
		"version 2 rotated at shutdown":        {2, func(t *testing.T) map[string][]byte { return oldJournal(t, 2, v2, true) }},
	}
	for name, layout := range layouts {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ingest")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			files := layout.files(t)
			for f, data := range files {
				if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var log bytes.Buffer
			cfg := Config{WindowDur: goldenWindow, JournalDir: dir, Logger: slog.New(slog.NewTextHandler(&log, nil))}
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := srv.Tables(); len(got.Windows) != 0 || len(got.Apps) != 0 {
				t.Errorf("server recovered %d windows and %d apps from a version %d journal", len(got.Windows), len(got.Apps), layout.version)
			}
			if !strings.Contains(log.String(), "moved aside") || !strings.Contains(log.String(), fmt.Sprintf("version=%d", layout.version)) {
				t.Errorf("the move was not logged: %q", log.String())
			}
			aside, err := filepath.Glob(fmt.Sprintf("%s.v%d-*", dir, layout.version))
			if err != nil || len(aside) != 1 {
				t.Fatalf("moved-aside journals: %v (%v)", aside, err)
			}
			kept, err := os.ReadDir(aside[0])
			if err != nil || len(kept) != len(files) {
				t.Fatalf("moved-aside journal holds %d files, want %d (%v)", len(kept), len(files), err)
			}
			for f, data := range files {
				if got, err := os.ReadFile(filepath.Join(aside[0], f)); err != nil || !bytes.Equal(got, data) {
					t.Errorf("moved-aside %s changed (%v)", f, err)
				}
			}

			// The fresh journal is the current version: it survives a
			// restart without another move.
			if _, err := srv.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			srv2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv2.Shutdown(context.Background())
			if again, _ := filepath.Glob(dir + ".v*"); len(again) != 1 {
				t.Errorf("restart over the new journal moved it aside again: %v", again)
			}
		})
	}
}
