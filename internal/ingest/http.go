package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/patterns"
	"lagalyzer/internal/report"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// HandleIngest serves POST /ingest/{app}/{session}: one chunked LiLa
// record stream (any format the readers sniff — text is the natural
// live wire format; v2 is buffered whole), consumed incrementally until the client closes
// the stream, disconnects, goes idle, or is evicted. The stream is
// always decoded in salvage mode: mid-stream corruption is dropped (a
// text line or a v2 block at a time), a disconnect salvages what
// arrived, and the response carries the session's salvage report.
// Only resource exhaustion (429), a stalled client (408), and
// admission refusals are error statuses.
func (s *Server) HandleIngest(w http.ResponseWriter, r *http.Request) {
	app := r.PathValue("app")
	sessionID := r.PathValue("session")
	if app == "" || sessionID == "" {
		http.Error(w, "ingest: need /ingest/{app}/{session}", http.StatusBadRequest)
		return
	}
	key := app + "/" + sessionID

	ss, err := s.admit(key, app)
	switch {
	case errors.Is(err, ErrShed):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(err, ErrDuplicate):
		http.Error(w, fmt.Sprintf("ingest: session %s is already live", key), http.StatusConflict)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// A session can end while its client is still sending: evicted,
	// drained, or cut by a decode error. Closing the connection then
	// leaves request bytes unread, and the reset the kernel answers them
	// with can fail the client's upload before it reads the summary.
	// Full duplex lets the summary go out before the body is done
	// (HTTP/2 is full duplex already), and lingerDiscard holds the
	// connection open until the client has had time to read it.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	defer lingerDiscard(rc, r.Body)
	defer s.release(ss)

	// Read deadlines: every arriving chunk pushes the deadline out by
	// ReadTimeout, so a slow-loris client trips it while a healthy
	// trickle never does. Best-effort — transports without deadline
	// support (httptest recorders) fall back to the idle reaper.
	readTimeout := s.cfg.readTimeout()
	setDeadline := func(t time.Time) error { return rc.SetReadDeadline(t) }
	if err := setDeadline(time.Now().Add(readTimeout)); err != nil {
		setDeadline = nil
	}
	ss.mu.Lock()
	if setDeadline != nil {
		ss.poke = setDeadline
	}
	ss.mu.Unlock()

	cr := obs.NewCountingReader(r.Body, mBytes)
	cr.OnRead(func(n int) {
		ss.touch(n)
		if setDeadline != nil {
			setDeadline(time.Now().Add(readTimeout))
		}
	})

	fh := report.FileHealth{Path: key, App: app}
	reader, err := lila.NewReaderOptions(cr, lila.ReaderOptions{Salvage: true, Limits: s.cfg.Limits})
	if err != nil {
		// Not even a sniffable header arrived; nothing to salvage.
		fh.Error = err.Error()
		s.recordHealth(fh)
		s.finishResponse(w, ss, 0, 0, &fh, nil, err)
		return
	}
	h := reader.Header()
	if h.App != "" {
		// The stream header's app name wins over the URL for
		// aggregation; the URL stays the session identity.
		ss.mu.Lock()
		ss.app = h.App
		ss.mu.Unlock()
		fh.App = h.App
	}
	cons := NewConsumer(fh.App, h, ConsumerConfig{
		WindowDur: s.cfg.windowDur(),
		Threshold: s.cfg.threshold(),
	})

	var readErr error
	const checkEvery = 256
	for n := 0; ; n++ {
		if n%checkEvery == 0 && ss.evictReason() != "" {
			break
		}
		rec, err := reader.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = err
			break
		}
		ss.mu.Lock()
		ss.records++
		ss.mu.Unlock()
		mRecords.Inc()
		if err := cons.Add(rec); err != nil {
			readErr = err
			break
		}
		if n%checkEvery == checkEvery-1 {
			if err := s.flushAndPolice(ss, cons); err != nil {
				readErr = err
				break
			}
		}
	}

	// Salvage-what-arrived: whatever ended the stream, the consumer's
	// finished windows are real data and get committed.
	entries, at := cons.Finish()
	if err := s.commit(cons.App(), entries, &at); err != nil {
		s.logger.Error("ingest commit", "session", key, "err", err)
	}

	fh.Salvage = lila.SalvageOf(reader)
	fh.StreamRecords = cons.diag.Records
	fh.StreamEpisodes = cons.Episodes()
	fh.DegradedToStream = cons.Degraded()
	var diags []string
	if skipped := cons.diag.SkippedRecords; skipped > 0 {
		fh.Diagnostics = &treebuild.Diagnostics{SkippedRecords: skipped}
		diags = append(diags,
			fmt.Sprintf("%d records skipped by the lenient session builder", skipped))
	}
	if cons.Degraded() {
		diags = append(diags,
			fmt.Sprintf("degraded to stats-only mode (%d episodes lost their trees)", cons.Treeless()))
	}
	if reason := ss.evictReason(); reason != "" {
		diags = append(diags, "evicted: "+reason)
	}
	if readErr != nil && !errors.Is(readErr, io.EOF) {
		diags = append(diags, "stream ended: "+readErr.Error())
	}
	s.recordHealth(fh)
	s.logSession(key, ss, readErr)
	s.finishResponse(w, ss, cons.Episodes(), at.Short, &fh, diags, readErr)
}

// flushAndPolice commits completed windows and enforces the memory
// budgets: over-budget sessions degrade to stats-only first and are
// evicted only when that is not enough.
func (s *Server) flushAndPolice(ss *session, cons *Consumer) error {
	if entries := cons.CompletedWindows(); len(entries) > 0 {
		if err := s.commit(cons.App(), entries, nil); err != nil {
			return err
		}
	}
	sessionOver, globalOver := s.charge(ss, cons.EstimateBytes())
	if (sessionOver || globalOver) && !cons.Degraded() {
		cons.Degrade()
		mDegraded.Inc()
		ss.mu.Lock()
		ss.degraded = true
		ss.mu.Unlock()
		s.logger.Warn("ingest degrade", "session", ss.key)
		sessionOver, globalOver = s.charge(ss, cons.EstimateBytes())
	}
	if sessionOver || globalOver {
		ss.markEvict(evictBudget)
	}
	return nil
}

func (s *Server) logSession(key string, ss *session, readErr error) {
	ss.mu.Lock()
	records, bytes := ss.records, ss.bytes
	ss.mu.Unlock()
	if readErr != nil {
		s.logger.Info("ingest session end", "session", key, "records", records,
			"bytes", bytes, "err", readErr.Error())
		return
	}
	s.logger.Info("ingest session end", "session", key, "records", records, "bytes", bytes)
}

// sessionSummary is the terminal response body of one ingest stream.
type sessionSummary struct {
	Session  string              `json:"session"`
	App      string              `json:"app"`
	Records  int64               `json:"records"`
	Bytes    int64               `json:"bytes"`
	Episodes int                 `json:"episodes"`
	Short    int                 `json:"short"`
	Degraded bool                `json:"degraded,omitempty"`
	Evicted  string              `json:"evicted,omitempty"`
	Drained  bool                `json:"drained,omitempty"`
	Salvage  *lila.SalvageReport `json:"salvage,omitempty"`
	Diags    []string            `json:"diagnostics,omitempty"`
	Error    string              `json:"error,omitempty"`
}

// responseLinger is how long lingerDiscard keeps a connection open
// after the response went out while its client may still be sending;
// it matches the delay net/http waits between its own FIN and close.
const responseLinger = 500 * time.Millisecond

// lingerDiscard flushes the response, then reads and discards what is
// left of body until the client ends it. A body that will not end
// within responseLinger, or that can no longer be read (a deadline
// poke leaves a chunked body's error sticky), still holds the
// connection open until then, so the client reads the response before
// the reset. A transport without read deadlines is left alone, since
// the wait could not be bounded.
func lingerDiscard(rc *http.ResponseController, body io.Reader) {
	until := time.Now().Add(responseLinger)
	if rc.Flush() != nil || rc.SetReadDeadline(until) != nil {
		return
	}
	if _, err := io.Copy(io.Discard, body); err != nil {
		time.Sleep(time.Until(until))
	}
}

// finishResponse maps how the stream ended to a status code: budget
// eviction and decode-limit trips are back-pressure (429), stalls are
// 408, drain is a successful 200 carrying drained=true, and anything
// salvaged — including mid-stream disconnects, where writing the
// response is itself best-effort — is a 200 with the salvage report.
func (s *Server) finishResponse(w http.ResponseWriter, ss *session, episodes, short int, fh *report.FileHealth, diags []string, readErr error) {
	ss.mu.Lock()
	sum := sessionSummary{
		Session:  ss.key,
		App:      ss.app,
		Records:  ss.records,
		Bytes:    ss.bytes,
		Episodes: episodes,
		Short:    short,
		Evicted:  ss.evict,
		Degraded: ss.degraded,
	}
	ss.mu.Unlock()
	sum.Salvage = fh.Salvage
	sum.Diags = diags

	status := http.StatusOK
	switch {
	case sum.Evicted == evictBudget:
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case sum.Evicted == evictIdle || sum.Evicted == evictDeadline:
		status = http.StatusRequestTimeout
	case sum.Evicted == evictDrain:
		sum.Drained = true
	case readErr != nil && errors.Is(readErr, lila.ErrLimit):
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case readErr != nil && errors.Is(readErr, os.ErrDeadlineExceeded):
		if sum.Evicted == "" {
			sum.Evicted = evictDeadline
		}
		status = http.StatusRequestTimeout
	}
	if sum.Evicted != "" {
		if c := evictionCounter(sum.Evicted); c != nil {
			c.Inc()
		}
	}
	if readErr != nil && status == http.StatusOK {
		// Disconnects and decode failures still answer 200: the stream
		// was salvaged. The error is informational.
		sum.Error = readErr.Error()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(&sum)
}

// windowView is one window's JSON projection: the tallies of its
// population pair, histogram and pattern map under the keys the
// endpoint has always served, plus a bounded pattern digest (full
// pattern maps stay server-side).
type windowView struct {
	WindowKey
	StartSec     float64                   `json:"start_sec"`
	Episodes     int                       `json:"episodes"`
	Perceptible  int                       `json:"perceptible"`
	Unstructured int                       `json:"unstructured,omitempty"`
	Treeless     int                       `json:"treeless,omitempty"`
	Triggers     [analysis.NumTriggers]int `json:"triggers"`
	TriggersLong [analysis.NumTriggers]int `json:"triggers_long"`
	EpisodeTime  trace.Dur                 `json:"episode_time_ns"`
	GCTime       trace.Dur                 `json:"gc_time_ns"`
	NativeTime   trace.Dur                 `json:"native_time_ns"`
	States       [4]int                    `json:"states"`
	Samples      int                       `json:"samples"`
	AppSamples   int                       `json:"app_samples"`
	LibSamples   int                       `json:"lib_samples"`
	Runnable     int                       `json:"runnable"`
	Ticks        int                       `json:"ticks"`
	LagHist      [NumLagBuckets]int        `json:"lag_hist"`
	LagTotal     trace.Dur                 `json:"lag_total_ns"`
	LagMax       trace.Dur                 `json:"lag_max_ns"`
	PatternCount int                       `json:"pattern_count"`
	TopPatterns  []patternDigest           `json:"top_patterns,omitempty"`
}

type patternDigest struct {
	Canon       string    `json:"canon"`
	Hash        uint64    `json:"hash"`
	Count       int       `json:"count"`
	Perceptible int       `json:"perceptible"`
	LagTotal    trace.Dur `json:"lag_total_ns"`
	LagMax      trace.Dur `json:"lag_max_ns"`
}

const topPatternsPerWindow = 5

// StatsResponse is GET /ingest/stats: committed per-window aggregates,
// per-app tallies, the live session roster, and the folded health of
// recently finished sessions. Live sessions' unflushed windows are by
// design absent — data becomes visible exactly when it is journaled.
type StatsResponse struct {
	Draining  bool                 `json:"draining"`
	Sessions  []liveSession        `json:"sessions"`
	MemInUse  int64                `json:"mem_in_use"`
	Windows   []windowView         `json:"windows"`
	Apps      map[string]*AppTally `json:"apps"`
	Health    *report.StudyHealth  `json:"health,omitempty"`
	WindowDur float64              `json:"window_sec"`
}

type liveSession struct {
	Session  string  `json:"session"`
	App      string  `json:"app"`
	Records  int64   `json:"records"`
	Bytes    int64   `json:"bytes"`
	Est      int64   `json:"est_bytes"`
	AgeSec   float64 `json:"age_sec"`
	IdleSec  float64 `json:"idle_sec"`
	Degraded bool    `json:"degraded,omitempty"`
}

// Stats assembles the queryable mid-session view.
func (s *Server) Stats() *StatsResponse {
	s.mu.Lock()
	tables := s.tables.Clone()
	resp := &StatsResponse{
		Draining:  s.draining,
		MemInUse:  s.memInUse,
		WindowDur: s.cfg.windowDur().Seconds(),
		Sessions:  make([]liveSession, 0, len(s.sessions)),
	}
	now := time.Now()
	for _, ss := range s.sessions {
		ss.mu.Lock()
		resp.Sessions = append(resp.Sessions, liveSession{
			Session:  ss.key,
			App:      ss.app,
			Records:  ss.records,
			Bytes:    ss.bytes,
			Est:      ss.est,
			AgeSec:   now.Sub(ss.started).Seconds(),
			IdleSec:  now.Sub(ss.lastByte).Seconds(),
			Degraded: ss.degraded,
		})
		ss.mu.Unlock()
	}
	s.mu.Unlock()
	sort.Slice(resp.Sessions, func(i, j int) bool { return resp.Sessions[i].Session < resp.Sessions[j].Session })

	// The tick tallies, like the time sums, are over every episode.
	for _, k := range tables.SortedWindows() {
		agg := tables.Windows[k]
		all, long := &agg.Pop[0], &agg.Pop[1]
		ps := agg.Patterns.Patterns()
		resp.Windows = append(resp.Windows, windowView{
			WindowKey:    k,
			StartSec:     (time.Duration(k.Window) * time.Duration(s.cfg.windowDur())).Seconds(),
			Episodes:     all.Trigger.Total,
			Perceptible:  long.Trigger.Total,
			Unstructured: agg.Patterns.Unstructured(),
			Treeless:     agg.Treeless,
			Triggers:     all.Trigger.Counts,
			TriggersLong: long.Trigger.Counts,
			EpisodeTime:  all.EpisodeTime,
			GCTime:       all.GC,
			NativeTime:   all.Native,
			States:       all.States,
			Samples:      all.Samples,
			AppSamples:   all.App,
			LibSamples:   all.Lib,
			Runnable:     all.Runnable,
			Ticks:        all.Ticks,
			LagHist:      agg.LagHist,
			LagTotal:     all.EpisodeTime,
			LagMax:       agg.LagMax,
			PatternCount: len(ps),
			TopPatterns:  topPatterns(ps),
		})
	}
	resp.Apps = tables.Apps
	if h := s.Health(); len(h.Files) > 0 {
		resp.Health = h
	}
	return resp
}

// topPatterns digests the patterns with the largest total lag.
func topPatterns(ps []*patterns.Pattern) []patternDigest {
	if len(ps) == 0 {
		return nil
	}
	out := make([]patternDigest, len(ps))
	for i, p := range ps {
		out[i] = patternDigest{Canon: p.Canon, Hash: p.Hash, Count: p.Count(),
			Perceptible: p.PerceptibleCount(), LagTotal: p.TotalLag(), LagMax: p.MaxLag()}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LagTotal != out[j].LagTotal {
			return out[i].LagTotal > out[j].LagTotal
		}
		return out[i].Canon < out[j].Canon
	})
	if len(out) > topPatternsPerWindow {
		out = out[:topPatternsPerWindow]
	}
	return out
}

// HandleStats serves GET /ingest/stats.
func (s *Server) HandleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}
