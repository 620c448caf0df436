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

// v1Aggregate and v1Entry are a window aggregate and a WAL entry as a
// version 1 journal stored them: each tally field by field.
type v1Aggregate struct {
	Episodes, Perceptible, Unstructured, Treeless int

	Triggers, TriggersLong          [analysis.NumTriggers]int
	EpisodeTime, GCTime, NativeTime trace.Dur

	States                                           [4]int
	Samples, AppSamples, LibSamples, Runnable, Ticks int

	LagHist          [NumLagBuckets]int
	LagTotal, LagMax trace.Dur
	Patterns         map[string]*PatternTally
}

type v1Entry struct {
	Key     WindowKey
	Agg     *v1Aggregate
	AppName string
	App     *AppTally
}

// TestJournalVersion1MovedAside: a journal written in version 1's
// format, before and after a graceful rotation, is detected on open
// and moved aside whole with its bytes intact, the event is logged,
// and the server starts with empty tables — never zero-filled
// populations decoded from the old entries.
func TestJournalVersion1MovedAside(t *testing.T) {
	agg := &v1Aggregate{Episodes: 7, Perceptible: 2, EpisodeTime: trace.Ms(900), LagTotal: trace.Ms(900),
		LagMax: trace.Ms(400), Samples: 30, Ticks: 40, Patterns: map[string]*PatternTally{"(d(l))": {Hash: 1, Count: 5}}}
	agg.Triggers[analysis.TriggerInput] = 7
	agg.LagHist[4] = 7
	entries := []v1Entry{
		{Key: WindowKey{App: "Jmol", Window: 3}, Agg: agg},
		{AppName: "Jmol", App: &AppTally{Sessions: 1, Short: 9, E2E: trace.Ms(20000)}},
	}
	wal := func(t *testing.T) []byte {
		var out []byte
		for i := range entries {
			var payload bytes.Buffer
			if err := gob.NewEncoder(&payload).Encode(&entries[i]); err != nil {
				t.Fatal(err)
			}
			out = binary.LittleEndian.AppendUint32(out, uint32(payload.Len()))
			out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload.Bytes()))
			out = append(out, payload.Bytes()...)
		}
		return out
	}
	layouts := map[string]func(t *testing.T) map[string][]byte{
		"killed before any rotation": func(t *testing.T) map[string][]byte {
			return map[string][]byte{"journal-0.wal": wal(t)}
		},
		"rotated at shutdown": func(t *testing.T) map[string][]byte {
			var snap bytes.Buffer
			v1Tables := struct {
				Windows map[WindowKey]*v1Aggregate
				Apps    map[string]*AppTally
			}{map[WindowKey]*v1Aggregate{entries[0].Key: agg}, map[string]*AppTally{"Jmol": entries[1].App}}
			if err := gob.NewEncoder(&snap).Encode(&v1Tables); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(snap.Bytes())
			sha := hex.EncodeToString(sum[:])
			mf := fmt.Sprintf(`{"snapshot":"snap-%s.gob","sha256":"%s","gen":1}`, sha[:16], sha)
			return map[string][]byte{"manifest.json": []byte(mf), "snap-" + sha[:16] + ".gob": snap.Bytes(), "journal-1.wal": wal(t)}
		},
	}
	for name, layout := range layouts {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ingest")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			files := layout(t)
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
				t.Errorf("server recovered %d windows and %d apps from a version 1 journal", len(got.Windows), len(got.Apps))
			}
			if !strings.Contains(log.String(), "moved aside") || !strings.Contains(log.String(), "version=1") {
				t.Errorf("the move was not logged: %q", log.String())
			}
			aside, err := filepath.Glob(dir + ".v1-*")
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
