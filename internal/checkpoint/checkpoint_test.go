package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/faultinject"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
)

// testSuite simulates a small deterministic suite to checkpoint.
func testSuite(t *testing.T) *trace.Suite {
	t.Helper()
	p := apps.CrosswordSage()
	var sessions []*trace.Session
	for i := 0; i < 2; i++ {
		s, err := sim.Run(sim.Config{Profile: p, SessionID: i, Seed: 7, SessionSeconds: 20})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	return &trace.Suite{App: p.Name, Sessions: sessions}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	suite := testSuite(t)

	st, err := Open(dir, "hash-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Load(suite.App); ok {
		t.Fatal("Load hit on an empty store")
	}
	if err := st.Save(suite); err != nil {
		t.Fatal(err)
	}

	// A reopened store (the resume path) must reproduce the suite
	// exactly: same sessions, structurally equal down to the episode
	// trees and sampling ticks.
	st2, err := Open(dir, "hash-a")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := st2.Load(suite.App)
	if !ok {
		t.Fatal("Load missed after Save + reopen")
	}
	if got.App != suite.App || len(got.Sessions) != len(suite.Sessions) {
		t.Fatalf("suite shape: got %s/%d sessions, want %s/%d",
			got.App, len(got.Sessions), suite.App, len(suite.Sessions))
	}
	for i := range suite.Sessions {
		if !reflect.DeepEqual(got.Sessions[i], suite.Sessions[i]) {
			t.Errorf("session %d differs after round trip", i)
		}
	}
	if apps := st2.Apps(); len(apps) != 1 || apps[0] != suite.App {
		t.Errorf("Apps() = %v, want [%s]", apps, suite.App)
	}
}

func TestConfigHashMismatchInvalidatesStore(t *testing.T) {
	dir := t.TempDir()
	suite := testSuite(t)
	st, err := Open(dir, "hash-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(suite); err != nil {
		t.Fatal(err)
	}

	// Same directory, different configuration: the store must start
	// empty and drop the stale payloads from disk.
	st2, err := Open(dir, "hash-b")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Load(suite.App); ok {
		t.Fatal("Load hit across a config-hash change")
	}
	entries, err := os.ReadDir(filepath.Join(dir, "apps"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("stale payloads not cleaned: %d files remain", len(entries))
	}
}

func TestCorruptPayloadIsMiss(t *testing.T) {
	dir := t.TempDir()
	suite := testSuite(t)
	st, err := Open(dir, "h")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(suite); err != nil {
		t.Fatal(err)
	}

	// Flip bits in the payload on disk: the digest check must turn the
	// load into a miss, never a wrong result or a crash.
	entries, err := os.ReadDir(filepath.Join(dir, "apps"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want exactly one payload file, got %d (err %v)", len(entries), err)
	}
	path := filepath.Join(dir, "apps", entries[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, faultinject.FlipBits(data, 3, 8, 0, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, "h")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Load(suite.App); ok {
		t.Fatal("Load hit on a corrupted payload")
	}
}

func TestTruncatedManifestResets(t *testing.T) {
	dir := t.TempDir()
	suite := testSuite(t)
	st, err := Open(dir, "h")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(suite); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn manifest (should be impossible given the atomic
	// writes, but belt and suspenders for foreign tools): Open must
	// degrade to an empty store, not fail.
	mp := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mp, faultinject.TruncateFrac(data, 0.5), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, "h")
	if err != nil {
		t.Fatalf("Open failed on a torn manifest: %v", err)
	}
	if _, ok := st2.Load(suite.App); ok {
		t.Fatal("Load hit through a torn manifest")
	}
}

func TestOrphanPayloadGarbageCollected(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, "h")
	if err != nil {
		t.Fatal(err)
	}
	_ = st
	// A crash between the payload write and the manifest update leaves
	// an unreferenced payload; the next Open collects it.
	orphan := filepath.Join(dir, "apps", "deadbeef.gob")
	if err := os.WriteFile(orphan, []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "h"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan payload survived garbage collection (stat err %v)", err)
	}
}

func TestFaultWrappedReaders(t *testing.T) {
	dir := t.TempDir()
	suite := testSuite(t)
	st, err := Open(dir, "h")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(suite); err != nil {
		t.Fatal(err)
	}

	// A stalling, short-read source still delivers the exact bytes —
	// loads must succeed (slowly), proving the read path has no framing
	// assumptions.
	slow, err := OpenOptions(dir, "h", Options{
		WrapReader: func(r io.Reader) io.Reader {
			return faultinject.NewStallReader(faultinject.NewShortReader(r, 11), 512, time.Microsecond)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := slow.Load(suite.App); !ok {
		t.Fatal("Load missed under stall+short-read injection")
	}

	// A source that dies mid-transfer must degrade to a miss.
	cut, err := OpenOptions(dir, "h", Options{
		WrapReader: func(r io.Reader) io.Reader {
			return faultinject.NewTruncatingReader(r, 100)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cut.Load(suite.App); ok {
		t.Fatal("Load hit through a truncated transfer")
	}
}

// TestTruncatedPayloadIsMiss: a payload cut short on disk (torn
// write, full filesystem) must degrade to a re-run miss — never a
// partial suite or a crash.
func TestTruncatedPayloadIsMiss(t *testing.T) {
	dir := t.TempDir()
	suite := testSuite(t)
	st, err := Open(dir, "h")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(suite); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(filepath.Join(dir, "apps"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want exactly one payload file, got %d (err %v)", len(entries), err)
	}
	path := filepath.Join(dir, "apps", entries[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, faultinject.TruncateFrac(data, 0.7), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, "h")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Load(suite.App); ok {
		t.Fatal("Load hit on a truncated payload")
	}
	// The store stays usable: a fresh Save repairs the entry.
	if err := st2.Save(suite); err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Load(suite.App); !ok {
		t.Fatal("re-saved entry does not load")
	}
}

// TestCorruptManifestResets: seeded bit flips in the manifest must
// degrade Open to an empty store (re-run everything), never to
// loading under a wrong configuration or crashing.
func TestCorruptManifestResets(t *testing.T) {
	dir := t.TempDir()
	suite := testSuite(t)
	st, err := Open(dir, "h")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(suite); err != nil {
		t.Fatal(err)
	}

	mp := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mp, faultinject.FlipBits(data, 19, 12, 0, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, "h")
	if err != nil {
		t.Fatalf("Open failed on a bit-flipped manifest: %v", err)
	}
	if _, ok := st2.Load(suite.App); ok {
		t.Fatal("Load hit through a bit-flipped manifest")
	}
}

// tamperSession rewrites session i of app's checkpointed payload with
// damage(v2 trace), then re-addresses the payload (new digest, file
// name, and manifest entry) so the SHA-256 check passes and only the
// strict decode stands between the damage and the caller.
func tamperSession(t *testing.T, dir, app string, i int, damage func([]byte) []byte) {
	t.Helper()
	mp := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "apps", m.Apps[app].Digest+".lila")
	data, err := os.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}

	// Walk the suite frame: app name, session count, then
	// length-prefixed v2 traces.
	var out []byte
	rest := data
	next := func() []byte {
		n, k := binary.Uvarint(rest)
		field := rest[k : k+int(n)]
		rest = rest[k+int(n):]
		return field
	}
	name := next()
	out = binary.AppendUvarint(out, uint64(len(name)))
	out = append(out, name...)
	count, k := binary.Uvarint(rest)
	rest = rest[k:]
	out = binary.AppendUvarint(out, count)
	for j := 0; j < int(count); j++ {
		v2 := next()
		if j == i {
			v2 = damage(append([]byte(nil), v2...))
		}
		out = binary.AppendUvarint(out, uint64(len(v2)))
		out = append(out, v2...)
	}

	sum := sha256.Sum256(out)
	digest := hex.EncodeToString(sum[:])
	if err := os.WriteFile(filepath.Join(dir, "apps", digest+".lila"), out, 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(old)
	m.Apps[app] = Entry{Digest: digest, Sessions: int(count)}
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mp, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestHostilePayloadIsMiss: a payload whose digest is right but whose
// v2 content is damaged — a flipped byte inside a block (checksum
// failure) or a session cut short (no end record, which a lenient
// build would patch over) — must be a counted miss, never a salvaged
// suite that differs from the one saved.
func TestHostilePayloadIsMiss(t *testing.T) {
	suite := testSuite(t)
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, s *trace.Session, v2 []byte) []byte
	}{
		{"block byte flip", func(t *testing.T, _ *trace.Session, v2 []byte) []byte {
			v, err := lila.ParseV2(v2, lila.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			b := v.Blocks()[len(v.Blocks())/2]
			v2[b.Offset+b.Length-3] ^= 0x40 // inside the stored payload
			return v2
		}},
		{"truncated session", func(t *testing.T, s *trace.Session, _ []byte) []byte {
			recs := lila.Flatten(s)
			var buf bytes.Buffer
			w, err := lila.NewV2Writer(&buf, lila.HeaderOf(s))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs[:len(recs)/2] {
				if err := w.WriteRecord(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, "h")
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Save(suite); err != nil {
				t.Fatal(err)
			}
			tamperSession(t, dir, suite.App, 1, func(v2 []byte) []byte {
				return tc.damage(t, suite.Sessions[1], v2)
			})

			st2, err := Open(dir, "h")
			if err != nil {
				t.Fatal(err)
			}
			before := mErrors.Value()
			if got, ok := st2.Load(suite.App); ok {
				t.Fatalf("Load hit on a damaged session (%d sessions returned)", len(got.Sessions))
			}
			if d := mErrors.Value() - before; d != 1 {
				t.Errorf("checkpoint_errors_total delta = %d, want 1", d)
			}
		})
	}
}
