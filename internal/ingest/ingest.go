package ingest

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"time"

	"lagalyzer/internal/lila"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/report"
	"lagalyzer/internal/trace"
)

// Config tunes the ingest server. Zero fields take the documented
// defaults, so Config{} is a working hostile-input configuration.
type Config struct {
	// WindowDur is the aggregation window (default DefaultWindowDur).
	WindowDur trace.Dur
	// Threshold is the perceptibility threshold (default 100 ms).
	Threshold trace.Dur
	// Limits are the per-record decode guards applied to every stream;
	// zero fields take lila defaults.
	Limits lila.Limits
	// MemoryBudget bounds the summed memory estimates of all live
	// sessions (default 256 MiB). Admission beyond it sheds with 429;
	// a live session pushing past it degrades, then is evicted.
	MemoryBudget int64
	// SessionBudget bounds one session's estimate (default 32 MiB),
	// which covers the open episodes and the ticks they can reach.
	// Crossing it degrades the session to stats-only; still crossing
	// it evicts.
	SessionBudget int64
	// MaxSessions caps concurrent sessions (default 1024).
	MaxSessions int
	// IdleTimeout evicts sessions that have delivered no bytes for
	// this long (default 60s).
	IdleTimeout time.Duration
	// ReadTimeout is the per-chunk read deadline: every arriving byte
	// extends it, a stalled client trips it (default 30s).
	ReadTimeout time.Duration
	// JournalDir, when non-empty, makes completed-window aggregates
	// crash-safe: they are WAL-appended before folding, and a new
	// server over the same dir resumes without double-counting.
	JournalDir string
	// Logger receives session lifecycle logs; nil disables.
	Logger *slog.Logger
}

func (c Config) windowDur() trace.Dur {
	if c.WindowDur > 0 {
		return c.WindowDur
	}
	return DefaultWindowDur
}

func (c Config) threshold() trace.Dur {
	if c.Threshold > 0 {
		return c.Threshold
	}
	return trace.DefaultPerceptibleThreshold
}

func (c Config) memoryBudget() int64 {
	if c.MemoryBudget > 0 {
		return c.MemoryBudget
	}
	return 256 << 20
}

func (c Config) sessionBudget() int64 {
	if c.SessionBudget > 0 {
		return c.SessionBudget
	}
	return 32 << 20
}

func (c Config) maxSessions() int {
	if c.MaxSessions > 0 {
		return c.MaxSessions
	}
	return 1024
}

func (c Config) idleTimeout() time.Duration {
	if c.IdleTimeout > 0 {
		return c.IdleTimeout
	}
	return 60 * time.Second
}

func (c Config) readTimeout() time.Duration {
	if c.ReadTimeout > 0 {
		return c.ReadTimeout
	}
	return 30 * time.Second
}

// Admission and eviction errors.
var (
	// ErrShed: the session cap or memory budget is exhausted; the
	// client should back off (429 + Retry-After).
	ErrShed = errors.New("ingest: load shed, retry later")
	// ErrDraining: the server is going away (503).
	ErrDraining = errors.New("ingest: draining, not accepting sessions")
	// ErrDuplicate: a live session already holds this key (409).
	ErrDuplicate = errors.New("ingest: duplicate live session")
)

// Eviction reasons.
const (
	evictIdle     = "idle"
	evictBudget   = "budget"
	evictDeadline = "deadline"
	evictDrain    = "drain"
)

// session is one live stream's registry entry. The receive goroutine
// owns the consumer; everything here is the cross-goroutine view.
type session struct {
	key     string // app/session URL identity
	started time.Time

	mu       sync.Mutex
	app      string // aggregation key once the header arrived
	records  int64
	bytes    int64
	est      int64 // last memory estimate charged to the server
	degraded bool
	evict    string // eviction reason, set once
	lastByte time.Time
	// poke forces the connection's read deadline into the past so a
	// blocked read unblocks promptly on evict/drain; best-effort (nil
	// or erroring on transports without deadlines, e.g. httptest).
	poke func(time.Time) error
}

func (ss *session) markEvict(reason string) {
	ss.mu.Lock()
	if ss.evict == "" {
		ss.evict = reason
	}
	poke := ss.poke
	ss.mu.Unlock()
	if poke != nil {
		poke(time.Now().Add(-time.Second))
	}
}

func (ss *session) evictReason() string {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.evict
}

func (ss *session) touch(n int) {
	ss.mu.Lock()
	ss.bytes += int64(n)
	ss.lastByte = time.Now()
	ss.mu.Unlock()
}

// Server is the live ingestion service: a registry of concurrent
// sessions, the committed aggregate tables, and the WAL that makes
// them crash-safe.
type Server struct {
	cfg     Config
	logger  *slog.Logger
	journal *Journal // nil without JournalDir

	mu       sync.Mutex
	tables   *Tables // committed: exactly snapshot + WAL when journaling
	sessions map[string]*session
	memInUse int64
	draining bool
	closed   bool
	// health keeps the most recent finished-session outcomes, folded
	// into a report.StudyHealth view on demand. Bounded ring.
	health     []report.FileHealth
	healthDrop int
	shed       int64

	stopReaper chan struct{}
	reaperDone chan struct{}
}

const healthRingCap = 64

// New builds the server, recovering journaled state when
// cfg.JournalDir is set, and starts the idle reaper.
func New(cfg Config) (*Server, error) {
	if cfg.Logger == nil {
		cfg.Logger = obs.DiscardLogger()
	}
	s := &Server{
		cfg:        cfg,
		logger:     cfg.Logger,
		tables:     NewTables(),
		sessions:   make(map[string]*session),
		stopReaper: make(chan struct{}),
		reaperDone: make(chan struct{}),
	}
	if cfg.JournalDir != "" {
		j, recovered, err := OpenJournal(cfg.JournalDir, s.logger)
		if err != nil {
			return nil, err
		}
		s.journal = j
		s.tables = recovered
	}
	go s.reaper()
	return s, nil
}

// reaper periodically evicts sessions that have gone idle — the
// defense against clients that park a connection without ever
// stalling long enough inside a single read to trip the deadline on
// transports where deadlines are unsupported.
func (s *Server) reaper() {
	defer close(s.reaperDone)
	interval := s.cfg.idleTimeout() / 4
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	if interval > 15*time.Second {
		interval = 15 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopReaper:
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-s.cfg.idleTimeout())
		s.mu.Lock()
		var idle []*session
		for _, ss := range s.sessions {
			ss.mu.Lock()
			stale := ss.lastByte.Before(cutoff)
			ss.mu.Unlock()
			if stale {
				idle = append(idle, ss)
			}
		}
		s.mu.Unlock()
		for _, ss := range idle {
			ss.markEvict(evictIdle)
		}
	}
}

// admit registers a new session or refuses it. The key is the URL
// identity app/session; a finished session frees its key for reuse.
func (s *Server) admit(key, app string) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return nil, ErrDraining
	}
	if len(s.sessions) >= s.cfg.maxSessions() || s.memInUse >= s.cfg.memoryBudget() {
		s.shed++
		mShed.Inc()
		return nil, ErrShed
	}
	if _, ok := s.sessions[key]; ok {
		return nil, ErrDuplicate
	}
	now := time.Now()
	ss := &session{key: key, app: app, started: now, lastByte: now}
	s.sessions[key] = ss
	mSessionsTotal.Inc()
	mSessionsActive.Set(int64(len(s.sessions)))
	return ss, nil
}

// release unregisters a session and returns its memory charge.
func (s *Server) release(ss *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sessions[ss.key] == ss {
		delete(s.sessions, ss.key)
	}
	ss.mu.Lock()
	s.memInUse -= ss.est
	ss.est = 0
	ss.mu.Unlock()
	mSessionsActive.Set(int64(len(s.sessions)))
}

// charge updates the session's memory estimate against the global
// pool and reports whether the session and global budgets still hold.
func (s *Server) charge(ss *session, est int64) (sessionOver, globalOver bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss.mu.Lock()
	s.memInUse += est - ss.est
	ss.est = est
	ss.mu.Unlock()
	return est > s.cfg.sessionBudget(), s.memInUse > s.cfg.memoryBudget()
}

// commit durably records one session's flushed entries and folds them
// into the committed tables: WAL append first (fsynced), fold second,
// so the tables are always reproducible as snapshot + WAL on restart.
func (s *Server) commit(app string, entries []flushEntry, at *AppTally) error {
	for _, fe := range entries {
		e := journalEntry{Key: WindowKey{App: app, Window: fe.Window}, Agg: fe.Agg}
		if s.journal != nil {
			if err := s.journal.Append(&e); err != nil {
				return err
			}
		}
		s.mu.Lock()
		foldEntry(s.tables, &e)
		s.mu.Unlock()
		mWindows.Inc()
	}
	if at != nil {
		e := journalEntry{AppName: app, App: at}
		if s.journal != nil {
			if err := s.journal.Append(&e); err != nil {
				return err
			}
		}
		s.mu.Lock()
		foldEntry(s.tables, &e)
		s.mu.Unlock()
	}
	return nil
}

// recordHealth appends one finished session's outcome to the bounded
// health ring.
func (s *Server) recordHealth(fh report.FileHealth) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.health) >= healthRingCap {
		drop := len(s.health) - healthRingCap + 1
		s.health = append(s.health[:0], s.health[drop:]...)
		s.healthDrop += drop
	}
	s.health = append(s.health, fh)
}

// Health folds the retained session outcomes into a StudyHealth view.
func (s *Server) Health() *report.StudyHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := &report.StudyHealth{}
	for _, fh := range s.health {
		h.Files = append(h.Files, fh)
	}
	return h
}

// Tables returns a deep copy of the committed aggregate state.
func (s *Server) Tables() *Tables {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tables.Clone()
}

// Sessions returns the number of live sessions.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// MemInUse returns the summed memory estimates of live sessions.
func (s *Server) MemInUse() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memInUse
}

// Draining reports whether drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Ready reports whether the server would admit a session right now;
// when it would not, reasons says why (readyz's 503 body).
func (s *Server) Ready() (ok bool, reasons []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		reasons = append(reasons, "draining")
	}
	if len(s.sessions) >= s.cfg.maxSessions() {
		reasons = append(reasons, "session-cap")
	}
	if s.memInUse >= s.cfg.memoryBudget() {
		reasons = append(reasons, "ingest-memory-budget")
	}
	return len(reasons) == 0, reasons
}

// BeginDrain stops admitting sessions and asks every live session to
// flush what it has and close (eviction reason "drain"; the HTTP
// response carries the partial summary with drained=true). Safe to
// call more than once.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	live := make([]*session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		live = append(live, ss)
	}
	s.mu.Unlock()
	for _, ss := range live {
		ss.markEvict(evictDrain)
	}
	s.logger.Info("ingest drain", "sessions", len(live))
}

// Shutdown drains, waits for live sessions to finish flushing (until
// ctx expires), rotates the journal into a fresh snapshot, and stops
// the reaper. The returned count is sessions still live at timeout.
func (s *Server) Shutdown(ctx context.Context) (int, error) {
	s.BeginDrain()
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
wait:
	for {
		if s.Sessions() == 0 {
			break
		}
		select {
		case <-ctx.Done():
			break wait
		case <-t.C:
		}
	}
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	left := len(s.sessions)
	tables := s.tables.Clone()
	s.mu.Unlock()
	if !alreadyClosed {
		close(s.stopReaper)
	}
	<-s.reaperDone
	var err error
	if s.journal != nil && !alreadyClosed {
		if rerr := s.journal.Rotate(tables); rerr != nil {
			err = rerr
		}
		if cerr := s.journal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return left, err
}
