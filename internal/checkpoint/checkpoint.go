// Package checkpoint is the crash-safety layer under resumable
// studies: a content-addressed on-disk store of completed per-app
// work, written with atomic tmp+rename operations so that a process
// killed at ANY instant — including SIGKILL mid-write — leaves the
// store either without an entry or with a complete, verified one,
// never with a torn file.
//
// The unit of checkpointing is one application's finished session
// suite: the expensive phase of a study (simulation or ingest). The
// analysis derived from a suite is a deterministic, cheap function of
// it (the fused engine's byte-identical guarantee), so a resume decodes
// the suite and re-derives the analysis instead of persisting the
// intertwined result graph. A study killed mid-run and restarted with
// the same configuration therefore produces byte-identical output to
// an uninterrupted run, skipping the work already checkpointed.
//
// Layout under the store directory (lagreport uses <out>/.checkpoint):
//
//	manifest.json       config hash, git SHA, app name → entry digest
//	apps/<digest>.lila  one app's session suite, named by content
//
// A payload is a treebuild suite frame: the app name, then each
// session as a length-prefixed raw LiLa v2 trace (what `lilasim
// -format v2` writes). The store verifies only the payload's digest;
// the caller decodes each session strictly (no salvage, no lenient
// rebuild) as it folds it, so a payload is either the suite that was
// saved or a miss, and reports the outcome with Decoded.
//
// Consistency protocol: an app's payload file is written (and synced)
// before the manifest references it, and both writes are atomic
// renames. A crash between the two leaves an unreferenced payload —
// garbage, collected on the next Open — never a dangling reference.
// Loads verify the payload's SHA-256 against the manifest digest; any
// mismatch (bit rot, partial copy) is treated as a miss, and the app
// is simply re-run.
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

	"lagalyzer/internal/obs"
)

// Checkpoint metrics: hits are the re-runs avoided on resume; errors
// count store-level failures that degraded to a miss (the study always
// proceeds — a broken checkpoint never breaks a run).
var (
	mHits = obs.NewCounter("checkpoint_hits_total",
		"apps restored from the checkpoint store instead of re-run")
	mSaves = obs.NewCounter("checkpoint_saves_total",
		"app suites persisted to the checkpoint store")
	mErrors = obs.NewCounter("checkpoint_errors_total",
		"checkpoint store failures degraded to a miss or skipped save")
)

// manifestVersion is bumped whenever the payload encoding changes; a
// version mismatch invalidates the whole store. Version 1 stored gob
// payloads (apps/<digest>.gob); version 2 stores LiLa v2 suite frames.
const manifestVersion = 2

// Entry references one checkpointed app in the manifest.
type Entry struct {
	// Digest is the SHA-256 of the payload file, hex-encoded. The
	// payload file is named after it (content addressing), and loads
	// re-verify it.
	Digest string `json:"digest"`
	// Sessions is the suite's session count (informational).
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

// SaveFrame persists app's suite of n sessions, already encoded as a
// treebuild suite frame: payload first (atomic, synced), manifest
// second (atomic), so a crash between the two never leaves a reference
// to a missing or partial file.
func (s *Store) SaveFrame(app string, n int, frame []byte) error {
	sum := sha256.Sum256(frame)
	digest := hex.EncodeToString(sum[:])
	if err := obs.WriteFileAtomic(s.payloadPath(digest), frame, 0o644); err != nil {
		mErrors.Inc()
		return fmt.Errorf("checkpoint: writing %s: %w", app, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.manifest.Apps[app] = Entry{Digest: digest, Sessions: n}
	if err := s.writeManifest(); err != nil {
		mErrors.Inc()
		return err
	}
	mSaves.Inc()
	return nil
}

// LoadFrame returns app's payload, a suite frame whose digest matched
// the manifest, or (nil, false) on a miss: no entry, an unreadable
// payload, or a digest mismatch. A miss is never an error — the caller
// just re-runs the app — and neither is a frame that then fails to
// decode, which the caller reports with Decoded.
func (s *Store) LoadFrame(app string) ([]byte, bool) {
	s.mu.Lock()
	entry, ok := s.manifest.Apps[app]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	f, err := os.Open(s.payloadPath(entry.Digest))
	if err != nil {
		mErrors.Inc()
		return nil, false
	}
	defer f.Close()
	var r io.Reader = f
	if s.opts.WrapReader != nil {
		r = s.opts.WrapReader(r)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		mErrors.Inc()
		return nil, false
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != entry.Digest {
		mErrors.Inc()
		return nil, false
	}
	return data, true
}

// Decoded records the outcome of decoding a LoadFrame payload: a hit
// when ok, else an error that made the load a miss. It returns ok.
func (s *Store) Decoded(ok bool) bool {
	if ok {
		mHits.Inc()
	} else {
		mErrors.Inc()
	}
	return ok
}

func (s *Store) manifestPath() string { return filepath.Join(s.dir, "manifest.json") }

func (s *Store) payloadPath(digest string) string {
	return filepath.Join(s.dir, "apps", digest+".lila")
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
// encoding (version-1 *.gob files). Best-effort.
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
// revision never participates in hit/miss decisions, because the
// checkpointed payload is raw simulated/ingested data whose validity
// is governed by the configuration hash alone.
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
