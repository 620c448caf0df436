package lila

import (
	"errors"
	"fmt"
	"io"

	"lagalyzer/internal/obs"
)

// ErrLimit marks errors caused by a Limits resource guard tripping
// (string/stack/record/byte budgets), as opposed to malformed input.
// Servers ingesting untrusted traces test errors.Is(err, ErrLimit) to
// answer resource exhaustion with back-pressure (429) rather than
// treating the stream as corrupt.
var ErrLimit = errors.New("lila: resource limit exceeded")

// limitErrf builds an error that formats like fmt.Errorf but matches
// errors.Is(err, ErrLimit).
func limitErrf(format string, args ...any) error {
	return &limitError{msg: fmt.Sprintf(format, args...)}
}

type limitError struct{ msg string }

func (e *limitError) Error() string        { return e.msg }
func (e *limitError) Is(target error) bool { return target == ErrLimit }

// errTruncated is noted when a salvage-mode stream ends without its
// end record.
var errTruncated = errors.New("truncated trace: no end record")

// Salvage metrics, flushed once per trace when the stream finishes
// (never per record).
var (
	mRecordsSalvaged = obs.NewCounter("lila_records_salvaged_total",
		"records decoded successfully by salvage-mode readers from damaged traces")
	mBytesSkipped = obs.NewCounter("lila_bytes_skipped_total",
		"encoded trace bytes skipped while resynchronizing damaged traces")
)

// Limits are the resource guards applied to untrusted traces. A field
// left zero takes its DefaultLimits value, so Limits{} is safe
// everywhere a Limits is accepted.
type Limits struct {
	// MaxStringLen bounds a single decoded string (class, method,
	// thread, app name).
	MaxStringLen int
	// MaxStringTable bounds each of the v2 format's up-front string
	// and stack tables.
	MaxStringTable int
	// MaxStackDepth bounds one sample's frame count.
	MaxStackDepth int
	// MaxRecords bounds the total records decoded from one trace.
	MaxRecords int
	// MaxTraceBytes bounds the encoded bytes a v2 stream reader will
	// buffer (the tables its records reference sit between the header
	// and the blocks, so a sniffed io.Reader is read whole) and the
	// inflated size of any one compressed block.
	MaxTraceBytes int64
	// MaxSessionBytes bounds the estimated in-memory size of a rebuilt
	// session (enforced by treebuild, not by the readers); sessions
	// beyond the budget degrade to the streaming analyzer.
	MaxSessionBytes int64
}

// DefaultLimits returns the guards applied when a Limits field is
// zero. They are far above anything a real LiLa session produces but
// low enough that a hostile or garbage input cannot balloon memory.
func DefaultLimits() Limits {
	return Limits{
		MaxStringLen:    1 << 20, // 1 MiB symbol
		MaxStringTable:  1 << 20, // 1M interned strings
		MaxStackDepth:   1 << 16, // 64k frames
		MaxRecords:      1 << 26, // 67M records
		MaxTraceBytes:   1 << 31, // 2 GiB encoded
		MaxSessionBytes: 4 << 30, // 4 GiB estimated session
	}
}

// WithDefaults fills zero fields from DefaultLimits.
func (l Limits) WithDefaults() Limits {
	d := DefaultLimits()
	if l.MaxStringLen <= 0 {
		l.MaxStringLen = d.MaxStringLen
	}
	if l.MaxStringTable <= 0 {
		l.MaxStringTable = d.MaxStringTable
	}
	if l.MaxStackDepth <= 0 {
		l.MaxStackDepth = d.MaxStackDepth
	}
	if l.MaxRecords <= 0 {
		l.MaxRecords = d.MaxRecords
	}
	if l.MaxTraceBytes <= 0 {
		l.MaxTraceBytes = d.MaxTraceBytes
	}
	if l.MaxSessionBytes <= 0 {
		l.MaxSessionBytes = d.MaxSessionBytes
	}
	return l
}

// ReaderOptions configure trace decoding beyond the defaults.
type ReaderOptions struct {
	// Salvage switches the reader from fail-stop to salvage decoding:
	// damage no longer kills the stream. The text reader drops the
	// malformed line, the v2 reader the damaged block, and both keep
	// going, accounting for the damage in their SalvageReport.
	Salvage bool
	// Limits are the resource guards; zero fields take defaults.
	Limits Limits
}

// SalvageReport accounts for the damage a salvage-mode reader worked
// around in one trace. All fields are deterministic functions of the
// input bytes, so reports can participate in byte-identical output
// guarantees.
type SalvageReport struct {
	// RecordsKept counts records decoded successfully.
	RecordsKept int `json:"records_kept"`
	// RecordsDropped counts records lost to damage: malformed text
	// lines, and the declared record counts of v2 blocks that failed
	// their checksum or were torn off the end (a torn block's count is
	// included when its header survived and is plausible).
	RecordsDropped int `json:"records_dropped"`
	// BytesSkipped totals the encoded bytes passed over (text: the
	// malformed lines; v2: the dropped blocks, and everything from a
	// frame the reader cannot use to the end of the data).
	BytesSkipped int64 `json:"bytes_skipped"`
	// Resyncs counts successful re-entries into the record stream
	// after damage (v2: blocks decoded after a dropped one).
	Resyncs int `json:"resyncs,omitempty"`
	// TruncatedTail is set when the stream ended without an end record
	// (or the input was cut off by a transport error).
	TruncatedTail bool `json:"truncated_tail,omitempty"`
	// FirstError and LastError describe the first and most recent
	// damage encountered.
	FirstError string `json:"first_error,omitempty"`
	LastError  string `json:"last_error,omitempty"`
}

// newReport is a salvage-mode reader's empty report; a strict reader
// has none.
func newReport(salvage bool) *SalvageReport {
	if salvage {
		return &SalvageReport{}
	}
	return nil
}

// Damaged reports whether the reader had to drop or skip anything.
func (r *SalvageReport) Damaged() bool {
	return r != nil && (r.RecordsDropped > 0 || r.BytesSkipped > 0 || r.TruncatedTail || r.FirstError != "")
}

// note records one damage event.
func (r *SalvageReport) note(err error) {
	msg := err.Error()
	if r.FirstError == "" {
		r.FirstError = msg
	}
	r.LastError = msg
}

// String summarizes the report for logs and health sections.
func (r *SalvageReport) String() string {
	if !r.Damaged() {
		return fmt.Sprintf("clean (%d records)", r.RecordsKept)
	}
	s := fmt.Sprintf("kept %d, dropped %d records, skipped %d bytes",
		r.RecordsKept, r.RecordsDropped, r.BytesSkipped)
	if r.TruncatedTail {
		s += ", truncated tail"
	}
	if r.FirstError != "" {
		s += fmt.Sprintf("; first error: %s", r.FirstError)
	}
	return s
}

// flushMetrics publishes the report's totals to the obs registry. It
// must be called exactly once, when the stream finishes.
func (r *SalvageReport) flushMetrics() {
	if r.Damaged() {
		mRecordsSalvaged.Add(int64(r.RecordsKept))
	}
	mBytesSkipped.Add(r.BytesSkipped)
}

// SalvageReporter is implemented by readers that can account for
// damage. Salvage returns nil when the reader is not in salvage mode.
type SalvageReporter interface {
	Salvage() *SalvageReport
}

// SalvageOf returns r's salvage report when r is a salvage-mode
// reader, else nil.
func SalvageOf(r Reader) *SalvageReport {
	if sr, ok := r.(SalvageReporter); ok {
		return sr.Salvage()
	}
	return nil
}

// NewReaderOptions is NewReader with explicit options: it sniffs the
// encoding of rd ('#' opens the text format; otherwise the 5-byte
// binary magic carries the version) and returns the matching reader
// configured with o. A LILA magic with any version but v2 — the
// retired v1 stream binary included — is ErrUnsupportedVersion, never
// a garbled decode or a salvage spiral; input that is neither is not
// a LiLa trace.
func NewReaderOptions(rd io.Reader, o ReaderOptions) (Reader, error) {
	br := &sniffReader{r: rd}
	first, err := br.peek()
	if err != nil {
		return nil, fmt.Errorf("lila: sniffing trace format: %w", err)
	}
	if first == '#' {
		return NewTextReaderOptions(br, o)
	}
	magic, err := br.peekN(len(v2Magic))
	if err != nil && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("lila: sniffing trace format: %w", err)
	}
	if err != nil || string(magic[:4]) != "LILA" {
		return nil, errors.New("lila: not a LiLa trace (no text header or LILA magic)")
	}
	if magic[4] != V2FormatVersion {
		return nil, fmt.Errorf("%w %d (this reader supports v2; regenerate the trace with lilasim)",
			ErrUnsupportedVersion, magic[4])
	}
	return NewV2Reader(br, o)
}
