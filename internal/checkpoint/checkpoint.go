// Package checkpoint is the crash-safety layer under resumable
// studies: a content-addressed on-disk store of completed per-app
// work, written with atomic tmp+rename operations so that a process
// killed at ANY instant — including SIGKILL mid-write — leaves the
// store either without an entry or with a complete, verified one,
// never with a torn file.
//
// The unit of checkpointing is one application's merged, closed
// engine.AppFold: every tally the study's analysis derives its result
// from, and nothing else. The configuration hash pins the seed, session
// count, session length and threshold, so a payload is only ever read
// back under the configuration that made it, and a resume finishes the
// fold instead of re-running the app. A study killed mid-run and
// restarted with the same configuration therefore produces
// byte-identical output to an uninterrupted run, skipping the work
// already checkpointed. The sessions themselves are not stored: the
// simulator regenerates session i of app A at seed S and length T
// with `lilasim -app A -session i -seed S -seconds T`.
//
// Layout under the store directory (lagreport uses <out>/.checkpoint):
//
//	manifest.json       config hash, git SHA, app name → entry digest
//	apps/<digest>.fold  one app's fold, named by content
//
// A payload is the fold's GobEncode form. Gob assigns its wire type
// ids per process in first-use order, so equal folds may encode to
// different bytes in different processes: digests identify a payload,
// not a fold. Load verifies the payload's digest, decodes it, and
// runs the caller's check of the fold (its app, threshold and session
// count); a payload that fails any of the three is a counted miss, so
// a hit is always a fold that was saved under this configuration.
//
// Consistency protocol: an app's payload file is written (and synced)
// before the manifest references it, and both writes are atomic
// renames. A crash between the two leaves an unreferenced payload —
// garbage, collected on the next Open — never a dangling reference.
// Any miss (bit rot, partial copy, skew) simply re-runs the app.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"

	"lagalyzer/internal/engine"
	"lagalyzer/internal/obs"
)

// Checkpoint metrics: hits are the re-runs avoided on resume; errors
// count store-level failures that degraded to a miss (the study always
// proceeds — a broken checkpoint never breaks a run).
var (
	mHits = obs.NewCounter("checkpoint_hits_total",
		"apps restored from the checkpoint store instead of re-run")
	mSaves = obs.NewCounter("checkpoint_saves_total",
		"app folds persisted to the checkpoint store")
	mErrors = obs.NewCounter("checkpoint_errors_total",
		"checkpoint store failures degraded to a miss or skipped save")
)

// manifestVersion is bumped whenever the payload encoding changes; a
// version mismatch invalidates the whole store. Version 1 stored gob
// session suites (apps/<digest>.gob), version 2 LiLa v2 suite frames
// (apps/<digest>.lila), version 3 closed folds with float pattern lag,
// version 4 without session IDs; version 5 stores today's closed folds.
const manifestVersion = 5

// Entry references one checkpointed app in the manifest.
type Entry struct {
	// Digest is the SHA-256 of the payload file, hex-encoded. The
	// payload file is named after it (content addressing), and loads
	// re-verify it.
	Digest string `json:"digest"`
	// Sessions is the fold's session count (informational).
	Sessions int `json:"sessions"`
}

// Manifest is the store's index, rewritten atomically after every
// completed app.
type Manifest struct {
	Version    int              `json:"version"`
	ConfigHash string           `json:"config_hash"`
	GitSHA     string           `json:"git_sha,omitempty"`
	Apps       map[string]Entry `json:"apps"`
}

// Options configure a Store beyond the defaults.
type Options struct {
	// WrapReader, when non-nil, wraps every payload read — a fault
	// injection point for the chaos tests (stalls, short reads). It
	// must not change the delivered bytes.
	WrapReader func(io.Reader) io.Reader
}

// Store is a content-addressed checkpoint directory bound to one
// configuration hash. It is safe for concurrent use by the study's
// worker pool.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	manifest Manifest
}

// Open creates or reopens the store at dir for the given configuration
// hash. An existing manifest with a different hash or version is
// discarded (its payload files are removed best-effort): checkpoints
// are only ever reused for the exact configuration that produced them.
func Open(dir, configHash string) (*Store, error) {
	return OpenOptions(dir, configHash, Options{})
}

// OpenOptions is Open with explicit options.
func OpenOptions(dir, configHash string, opts Options) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "apps"), 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s := &Store{dir: dir, opts: opts}
	s.manifest = Manifest{
		Version:    manifestVersion,
		ConfigHash: configHash,
		GitSHA:     vcsRevision(),
		Apps:       map[string]Entry{},
	}

	data, err := os.ReadFile(s.manifestPath())
	if err == nil {
		var m Manifest
		if json.Unmarshal(data, &m) == nil &&
			m.Version == manifestVersion && m.ConfigHash == configHash {
			if m.Apps == nil {
				m.Apps = map[string]Entry{}
			}
			if m.GitSHA == "" {
				m.GitSHA = s.manifest.GitSHA
			}
			s.manifest = m
		} else {
			// Stale store for another configuration or format: drop the
			// payloads so the directory cannot grow without bound.
			s.removeAllPayloads()
		}
	}
	s.collectGarbage()
	if err := s.writeManifest(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// ConfigHash returns the configuration hash the store is bound to.
func (s *Store) ConfigHash() string { return s.manifest.ConfigHash }

// Apps returns the checkpointed app names, sorted.
func (s *Store) Apps() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.manifest.Apps))
	for name := range s.manifest.Apps {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Save persists app's merged, closed fold: payload first (atomic,
// synced), manifest second (atomic), so a crash between the two never
// leaves a reference to a missing or partial file.
func (s *Store) Save(app string, f *engine.AppFold) error {
	payload, err := f.GobEncode()
	if err != nil {
		mErrors.Inc()
		return fmt.Errorf("checkpoint: encoding %s: %w", app, err)
	}
	sum := sha256.Sum256(payload)
	digest := hex.EncodeToString(sum[:])
	if err := obs.WriteFileAtomic(s.payloadPath(digest), payload, 0o644); err != nil {
		mErrors.Inc()
		return fmt.Errorf("checkpoint: writing %s: %w", app, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.manifest.Apps[app] = Entry{Digest: digest, Sessions: f.Sessions()}
	if err := s.writeManifest(); err != nil {
		mErrors.Inc()
		return err
	}
	mSaves.Inc()
	return nil
}

// Load returns app's fold, or (nil, false) on a miss: no entry, an
// unreadable payload, a digest mismatch, a payload that fails to
// decode, or a fold that check rejects. A miss with an entry counts as
// a checkpoint error, and a returned fold as a hit. A miss is never an
// error to the caller, which just re-runs the app.
func (s *Store) Load(app string, check func(*engine.AppFold) error) (*engine.AppFold, bool) {
	s.mu.Lock()
	entry, ok := s.manifest.Apps[app]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	f, err := s.read(entry.Digest)
	if err == nil {
		err = check(f)
	}
	if err != nil {
		mErrors.Inc()
		return nil, false
	}
	mHits.Inc()
	return f, true
}

// read decodes the payload of the given digest, verifying the digest.
func (s *Store) read(digest string) (*engine.AppFold, error) {
	file, err := os.Open(s.payloadPath(digest))
	if err != nil {
		return nil, err
	}
	defer file.Close()
	var r io.Reader = file
	if s.opts.WrapReader != nil {
		r = s.opts.WrapReader(r)
	}
	payload, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if sum := sha256.Sum256(payload); hex.EncodeToString(sum[:]) != digest {
		return nil, fmt.Errorf("checkpoint: payload digest mismatch")
	}
	f := new(engine.AppFold)
	if err := f.GobDecode(payload); err != nil {
		return nil, err
	}
	return f, nil
}

func (s *Store) manifestPath() string { return filepath.Join(s.dir, "manifest.json") }

func (s *Store) payloadPath(digest string) string {
	return filepath.Join(s.dir, "apps", digest+".fold")
}

// writeManifest serializes the manifest atomically. Callers hold s.mu
// (or have exclusive access during Open).
func (s *Store) writeManifest() error {
	data, err := json.MarshalIndent(s.manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := obs.WriteFileAtomic(s.manifestPath(), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// collectGarbage removes payload files the manifest does not
// reference: leftovers from a crash between payload and manifest
// writes, from a discarded stale store, or from an older payload
// encoding. Best-effort.
func (s *Store) collectGarbage() {
	referenced := map[string]bool{}
	for _, e := range s.manifest.Apps {
		referenced[filepath.Base(s.payloadPath(e.Digest))] = true
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, "apps"))
	if err != nil {
		return
	}
	for _, de := range entries {
		if !referenced[de.Name()] {
			os.Remove(filepath.Join(s.dir, "apps", de.Name()))
		}
	}
}

// removeAllPayloads clears the apps directory (stale-store reset).
func (s *Store) removeAllPayloads() {
	entries, err := os.ReadDir(filepath.Join(s.dir, "apps"))
	if err != nil {
		return
	}
	for _, de := range entries {
		os.Remove(filepath.Join(s.dir, "apps", de.Name()))
	}
}

// vcsRevision returns the git revision embedded by the Go build, or
// "" when unavailable (e.g. test binaries). Informational only: the
// revision never participates in hit/miss decisions, which the
// configuration hash, the manifest version and the fold check govern.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, kv := range info.Settings {
		if kv.Key == "vcs.revision" {
			return kv.Value
		}
	}
	return ""
}
