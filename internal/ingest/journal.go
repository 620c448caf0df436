package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lagalyzer/internal/obs"
)

// The journal makes window aggregates crash-safe: every completed
// window (and every finished session's app tally) is appended to a
// write-ahead log before it is folded into the server's in-memory
// tables, so the tables are at all times exactly "snapshot + current
// journal segment". A lagd killed mid-ingest replays that sum on
// restart and resumes without double-counting — an entry is appended
// once and folded once, and anything a crashed session had not yet
// flushed died with its in-memory state on both sides.
//
// On-disk layout (JournalDir):
//
//	manifest.json          {"version","snapshot","sha256","gen"} —
//	                       written atomically (payload before
//	                       manifest, the checkpoint discipline)
//	snap-<sha>.gob         gob(Tables) at the last graceful shutdown
//	journal-v3-<gen>.wal   framed entries appended since the snapshot
//
// Each frame is [u32 length][u32 crc32(payload)][gob payload]. A torn
// tail (partial frame or checksum mismatch, the normal result of
// SIGKILL mid-write) is truncated on open; everything before it is
// intact because appends are fsynced.
//
// gob matches fields by name, so an entry of another shape would
// decode with its tallies silently zeroed. The format is therefore
// versioned, in the manifest and in the WAL's name. Version 1 (a
// manifest without a version, WALs named journal-<gen>.wal) stored
// each window's tallies field by field, version 2 the engine's
// population pair and a map of pattern tallies; version 3 stores the
// patterns as a patterns.Builder. A journal of any other version is
// moved aside whole on open and logged, and the server starts empty:
// its files are kept, never replayed and never deleted.

// journalVersion is the on-disk format of manifest, snapshot and WAL.
const journalVersion = 3

// journalEntry is one WAL record: a completed window's aggregate or a
// finished session's app tally (exactly one of Agg/App is set).
type journalEntry struct {
	Key     WindowKey
	Agg     *Aggregate
	AppName string
	App     *AppTally
}

type manifest struct {
	Version  int    `json:"version"`
	Snapshot string `json:"snapshot"`
	SHA256   string `json:"sha256"`
	Gen      uint64 `json:"gen"`
}

// Journal is the append side of the WAL. Safe for concurrent use.
type Journal struct {
	dir string

	mu  sync.Mutex
	f   *os.File
	gen uint64
	buf bytes.Buffer
}

const (
	manifestName  = "manifest.json"
	frameHeader   = 8
	maxFrameBytes = 64 << 20 // sanity bound on replay
)

func journalName(gen uint64) string { return fmt.Sprintf("journal-v%d-%d.wal", journalVersion, gen) }

// OpenJournal recovers the durable state under dir (creating it if
// needed) and returns the journal ready for appends plus the
// recovered tables: the last snapshot with the current WAL segment
// replayed on top. A torn WAL tail is truncated; a corrupt or missing
// snapshot is an error (the manifest names it, so losing it is real
// data loss, not a fresh start). A journal of another format version
// is renamed to dir.v<version>-<unix time> and logged to log, and the
// journal starts empty.
func OpenJournal(dir string, log *slog.Logger) (*Journal, *Tables, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	if m.Version != journalVersion {
		aside := fmt.Sprintf("%s.v%d-%d", filepath.Clean(dir), m.Version, time.Now().Unix())
		if err := os.Rename(dir, aside); err != nil {
			return nil, nil, fmt.Errorf("ingest journal: moving aside a version %d journal: %w", m.Version, err)
		}
		log.Warn("ingest journal: moved aside a journal of another format version; starting with empty tables",
			"version", m.Version, "want", journalVersion, "moved_to", aside)
		m = manifest{Version: journalVersion}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}

	tables := NewTables()
	if m.Snapshot != "" {
		data, err := os.ReadFile(filepath.Join(dir, m.Snapshot))
		if err != nil {
			return nil, nil, fmt.Errorf("ingest journal: snapshot: %w", err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != m.SHA256 {
			return nil, nil, fmt.Errorf("ingest journal: snapshot %s checksum mismatch", m.Snapshot)
		}
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(tables); err != nil {
			return nil, nil, fmt.Errorf("ingest journal: snapshot decode: %w", err)
		}
	}
	walPath := filepath.Join(dir, journalName(m.Gen))
	if err := replayWAL(walPath, tables); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{dir: dir, f: f, gen: m.Gen}, tables, nil
}

// readManifest returns dir's manifest. Before the first rotation there
// is none, and the version is that of an older version's generation-0
// WAL in dir, else the current one.
func readManifest(dir string) (manifest, error) {
	m := manifest{Version: 1} // version 1 manifests carry no version
	mf, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case os.IsNotExist(err):
		for v, wal := range []string{"journal-0.wal", "journal-v2-0.wal"} {
			if _, err := os.Stat(filepath.Join(dir, wal)); err == nil {
				return manifest{Version: v + 1}, nil
			}
		}
		return manifest{Version: journalVersion}, nil
	case err != nil:
		return m, err
	}
	if err := json.Unmarshal(mf, &m); err != nil {
		return m, fmt.Errorf("ingest journal: bad manifest: %w", err)
	}
	return m, nil
}

// replayWAL folds every intact frame of path into tables and
// truncates the file at the first torn or corrupt frame. A missing
// file is fine (zero entries).
func replayWAL(path string, tables *Tables) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()

	var good int64
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			break // clean EOF or torn header
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxFrameBytes {
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			break // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt frame; everything after is suspect
		}
		var e journalEntry
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&e); err != nil {
			break
		}
		foldEntry(tables, &e)
		good += frameHeader + int64(n)
	}
	if fi, err := f.Stat(); err == nil && fi.Size() != good {
		if err := f.Truncate(good); err != nil {
			return fmt.Errorf("ingest journal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

func foldEntry(t *Tables, e *journalEntry) {
	if e.Agg != nil {
		t.window(e.Key).Merge(e.Agg)
	}
	if e.App != nil {
		t.app(e.AppName).merge(e.App)
	}
}

// Append durably writes one entry (framed, checksummed, fsynced).
// Callers fold the entry into the in-memory tables only after Append
// returns nil — the order that makes replay exact.
func (j *Journal) Append(e *journalEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("ingest journal: closed")
	}
	j.buf.Reset()
	j.buf.Write(make([]byte, frameHeader))
	if err := gob.NewEncoder(&j.buf).Encode(e); err != nil {
		return err
	}
	frame := j.buf.Bytes()
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	if _, err := j.f.Write(frame); err != nil {
		return err
	}
	return j.f.Sync()
}

// Rotate snapshots tables and starts a fresh WAL generation: payload
// first (snap-<sha>.gob, atomic), then the manifest pointing at it,
// then the old segment is deleted. Called at graceful shutdown once
// every session has flushed; a crash anywhere in the sequence leaves
// either the old (snapshot, WAL) pair or the new one fully intact.
func (j *Journal) Rotate(tables *Tables) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(tables); err != nil {
		return err
	}
	sum := sha256.Sum256(buf.Bytes())
	sha := hex.EncodeToString(sum[:])
	snapName := "snap-" + sha[:16] + ".gob"
	if err := obs.WriteFileAtomic(filepath.Join(j.dir, snapName), buf.Bytes(), 0o644); err != nil {
		return err
	}
	oldGen := j.gen
	m := manifest{Version: journalVersion, Snapshot: snapName, SHA256: sha, Gen: oldGen + 1}
	mb, err := json.Marshal(&m)
	if err != nil {
		return err
	}
	if err := obs.WriteFileAtomic(filepath.Join(j.dir, manifestName), mb, 0o644); err != nil {
		return err
	}
	// The manifest now points at gen+1; switch appends over.
	if j.f != nil {
		j.f.Close()
	}
	j.gen = oldGen + 1
	f, err := os.OpenFile(filepath.Join(j.dir, journalName(j.gen)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.f = nil
		return err
	}
	j.f = f
	// Best-effort cleanup of superseded files.
	os.Remove(filepath.Join(j.dir, journalName(oldGen)))
	if old, err := filepath.Glob(filepath.Join(j.dir, "snap-*.gob")); err == nil {
		for _, p := range old {
			if filepath.Base(p) != snapName {
				os.Remove(p)
			}
		}
	}
	return nil
}

// Close releases the WAL file handle. Append after Close errors.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
