// Study health: the graceful-degradation ledger. A damaged trace
// file, an over-budget session, or a failed app no longer aborts a
// study; it is recorded here, rendered in the report's Health section,
// and serialized into runmeta.json. Every field is a deterministic
// function of the inputs, so health participates in the byte-identical
// sequential-vs-parallel guarantee.
package report

import (
	"fmt"
	"strings"

	"lagalyzer/internal/lila"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/treebuild"
)

var mSessionsSkipped = obs.NewCounter("report_sessions_skipped_total",
	"sessions dropped from a study because their trace could not be ingested")

// FileHealth is the ingest outcome of one trace file.
type FileHealth struct {
	Path string `json:"path"`
	App  string `json:"app,omitempty"`
	// Error is set when the file contributed no session at all.
	Error string `json:"error,omitempty"`
	// Salvage accounts for wire-level damage worked around by the
	// salvage decoder (nil outside salvage mode or when absent).
	Salvage *lila.SalvageReport `json:"salvage,omitempty"`
	// Diagnostics accounts for records the lenient session builder had
	// to drop.
	Diagnostics *treebuild.Diagnostics `json:"diagnostics,omitempty"`
	// DegradedToStream marks a session over the memory budget of a
	// full build, which a load that keeps sessions (LoadFiles without
	// an episode hook) rebuilt in release mode for its counts only. The
	// fold path (AnalyzeTraceDirContext) builds in release mode from
	// the start, so it analyzes such a session and never sets this.
	DegradedToStream bool `json:"degraded_to_stream,omitempty"`
	// StreamEpisodes and StreamRecords summarize the release-mode
	// fallback (deterministic counts only — no wall-clock figures).
	StreamEpisodes int `json:"stream_episodes,omitempty"`
	StreamRecords  int `json:"stream_records,omitempty"`
}

// Damaged reports whether the file's ingest lost anything.
func (f *FileHealth) Damaged() bool {
	return f.Error != "" || f.DegradedToStream ||
		f.Salvage.Damaged() || f.Diagnostics.Degraded()
}

// Loss reasons distinguish why an app failed in the health ledger.
// Generic failures (panic, ingest error) leave Reason empty; the
// constants mark the execution-control causes, which the report's
// Health section itemizes apart from data-dependent failures (and
// dist.ShardLostError sets LossShard through its LossReason).
const (
	// LossTimedOut marks an app that exceeded StudyConfig.AppTimeout
	// while the study as a whole kept running.
	LossTimedOut = "timed_out"
	// LossCanceled marks an app abandoned because the whole study's
	// context was canceled (signal, shutdown, parent deadline).
	LossCanceled = "canceled"
	// LossShard marks an app a distributed study could not recover: its
	// shard exhausted every remote attempt and the local re-run was
	// unavailable or failed too. Set via errors implementing
	// LossReason() (internal/dist.ShardLostError).
	LossShard = "shard_lost"
)

// AppHealth is the analysis outcome of one failed application.
type AppHealth struct {
	App   string `json:"app"`
	Error string `json:"error"`
	// Reason is one of the Loss* constants, or empty for generic
	// failures.
	Reason string `json:"reason,omitempty"`
}

// StudyHealth aggregates everything a study survived.
type StudyHealth struct {
	// Files lists per-file ingest damage, ordered by path. Clean files
	// are omitted.
	Files []FileHealth `json:"files,omitempty"`
	// Apps lists applications whose analysis failed entirely, ordered
	// by name.
	Apps []AppHealth `json:"apps,omitempty"`
	// SessionsSkipped counts sessions that contributed nothing (fatal
	// file errors plus streaming-degraded sessions).
	SessionsSkipped int `json:"sessions_skipped,omitempty"`
}

// Degraded reports whether anything at all was lost or worked around.
func (h *StudyHealth) Degraded() bool {
	return h != nil && (len(h.Files) > 0 || len(h.Apps) > 0 || h.SessionsSkipped > 0)
}

// Partial reports whether a whole unit of work (a session or an app)
// was lost — the condition for the partial-success exit code 3, as
// opposed to record-level salvage inside surviving sessions.
func (h *StudyHealth) Partial() bool {
	if h == nil {
		return false
	}
	if len(h.Apps) > 0 || h.SessionsSkipped > 0 {
		return true
	}
	for i := range h.Files {
		if h.Files[i].Error != "" || h.Files[i].DegradedToStream {
			return true
		}
	}
	return false
}

// Merge folds o into h (used when loader and study health combine,
// e.g. lagreport joining LoadTraceDirOptions health with the
// analysis's own).
func (h *StudyHealth) Merge(o *StudyHealth) {
	if o == nil {
		return
	}
	h.Files = append(h.Files, o.Files...)
	h.Apps = append(h.Apps, o.Apps...)
	h.SessionsSkipped += o.SessionsSkipped
}

// FormatHealth renders the Health section of the text report. Output
// is deterministic: files ordered by path, apps by name.
func FormatHealth(h *StudyHealth) string {
	var b strings.Builder
	if !h.Degraded() {
		fmt.Fprintf(&b, "all inputs ingested cleanly\n")
		return b.String()
	}
	if h.SessionsSkipped > 0 {
		fmt.Fprintf(&b, "sessions skipped: %d\n", h.SessionsSkipped)
	}
	for i := range h.Files {
		f := &h.Files[i]
		fmt.Fprintf(&b, "file %s", f.Path)
		if f.App != "" {
			fmt.Fprintf(&b, " (app %s)", f.App)
		}
		fmt.Fprintf(&b, ":\n")
		switch {
		case f.Error != "":
			fmt.Fprintf(&b, "  skipped: %s\n", f.Error)
		case f.DegradedToStream:
			fmt.Fprintf(&b, "  degraded to streaming aggregates: %d episodes from %d records\n",
				f.StreamEpisodes, f.StreamRecords)
		}
		if f.Salvage.Damaged() {
			fmt.Fprintf(&b, "  salvage: %s\n", f.Salvage)
		}
		if f.Diagnostics.Degraded() {
			d := f.Diagnostics
			fmt.Fprintf(&b, "  rebuild: skipped %d records, dropped %d open intervals, %d episodes",
				d.SkippedRecords, d.DroppedOpenIntervals, d.DroppedEpisodes)
			if d.SynthesizedEnd {
				fmt.Fprintf(&b, ", synthesized end")
			}
			fmt.Fprintf(&b, "\n")
			if d.FirstSkipError != "" {
				fmt.Fprintf(&b, "  first rebuild error: %s\n", d.FirstSkipError)
			}
		}
	}
	for _, a := range h.Apps {
		if a.Reason != "" {
			fmt.Fprintf(&b, "app %s failed [%s]: %s\n", a.App, a.Reason, a.Error)
		} else {
			fmt.Fprintf(&b, "app %s failed: %s\n", a.App, a.Error)
		}
	}
	return b.String()
}
