// Package lila implements the trace format contract between the LiLa
// listener-latency profiler and LagAlyzer.
//
// A trace is a header followed by a time-ordered stream of records:
// thread declarations, interval call/return pairs, global GC start/end
// brackets, call-stack samples of all threads, and a final end record
// carrying the session end time and the count of episodes the profiler
// filtered out (shorter than the filter threshold).
//
// Two interchangeable encodings are provided: a line-oriented text
// format that is easy to inspect and diff (and to stream, line by
// line), and the block-indexed v2 binary format for files, whose
// up-front string and stack tables keep multi-hundred-thousand-record
// sessions compact and whose footer index lets readers map the file
// and decode only the blocks an analysis needs. Both round-trip
// exactly. The v1 stream binary format is retired: readers reject it
// with ErrUnsupportedVersion.
//
// The package deliberately knows nothing about interval trees or
// episodes; reconstructing those from the record stream is the job of
// package treebuild, mirroring how the real LagAlyzer parses LiLa
// output into its in-memory core.
package lila

import (
	"errors"
	"fmt"

	"lagalyzer/internal/trace"
)

// FormatVersion is the version of the text encoding. The
// block-indexed binary format is V2FormatVersion.
const FormatVersion = 1

// ErrUnsupportedVersion is wrapped by readers that recognise a LiLa
// trace whose format version they do not speak — a retired v1 binary
// trace, or a version from the future. Callers
// match it with errors.Is to distinguish "wrong version" from "not a
// LiLa trace at all".
var ErrUnsupportedVersion = errors.New("lila: unsupported format version")

// Header carries the per-session metadata recorded at trace start.
type Header struct {
	// App is the application's display name.
	App string
	// SessionID distinguishes multiple sessions with the same app.
	SessionID int
	// GUIThread is the event dispatch thread whose dispatch intervals
	// delimit episodes.
	GUIThread trace.ThreadID
	// FilterThreshold is the minimum episode duration the profiler
	// traces; shorter episodes are only counted.
	FilterThreshold trace.Dur
	// SamplePeriod is the nominal call-stack sampling interval.
	SamplePeriod trace.Dur
	// Start is the session start time stamp.
	Start trace.Time
}

// RecType enumerates the record kinds of the trace stream.
type RecType uint8

const (
	// RecThread declares a thread (ID, name, daemon flag). Thread
	// records appear before any record referring to the thread.
	RecThread RecType = iota
	// RecCall opens an interval (dispatch, listener, paint, native,
	// or async — never GC) on a thread.
	RecCall
	// RecReturn closes the innermost open interval on a thread.
	RecReturn
	// RecGCStart opens a stop-the-world collection. GC brackets are
	// global: they apply to every thread simultaneously.
	RecGCStart
	// RecGCEnd closes the current collection.
	RecGCEnd
	// RecSample is the call-stack sample of one thread at one
	// sampling tick. All samples of a tick share a time stamp.
	RecSample
	// RecEnd terminates the stream, carrying the session end time and
	// the short-episode count.
	RecEnd

	numRecTypes = iota
)

var recTypeNames = [numRecTypes]string{
	RecThread:  "thread",
	RecCall:    "call",
	RecReturn:  "return",
	RecGCStart: "gcstart",
	RecGCEnd:   "gcend",
	RecSample:  "sample",
	RecEnd:     "end",
}

// String returns the record type's name.
func (t RecType) String() string {
	if int(t) >= numRecTypes {
		return fmt.Sprintf("rectype(%d)", uint8(t))
	}
	return recTypeNames[t]
}

// Record is one entry of the trace stream. Which fields are meaningful
// depends on Type; unused fields are zero.
type Record struct {
	Type   RecType
	Time   trace.Time        // all except RecThread
	Thread trace.ThreadID    // RecThread, RecCall, RecReturn, RecSample
	Kind   trace.Kind        // RecCall
	Class  string            // RecCall
	Method string            // RecCall
	Name   string            // RecThread: thread name
	Daemon bool              // RecThread
	Major  bool              // RecGCStart: major (full) collection
	State  trace.ThreadState // RecSample
	Stack  []trace.Frame     // RecSample, leaf first
	Count  int               // RecEnd: short-episode count
}

// Validate checks that the record is internally consistent for its
// type (e.g. a call carries a valid non-GC kind).
func (r *Record) Validate() error {
	return validate(r.Type, r.Thread, r.Name, r.Kind, r.State)
}

// validate states Validate's per-type rules once, for the fields they
// read; the v2 block decoder checks its compact records with it before
// any of them becomes a Record.
func validate(typ RecType, thread trace.ThreadID, name string, kind trace.Kind, state trace.ThreadState) error {
	switch typ {
	case RecThread:
		if name == "" {
			return fmt.Errorf("lila: thread record for %d without a name", thread)
		}
	case RecCall:
		if !kind.Valid() {
			return fmt.Errorf("lila: call record with invalid kind %d", kind)
		}
		if kind == trace.KindGC {
			return fmt.Errorf("lila: GC intervals use gcstart/gcend records, not calls")
		}
	case RecReturn, RecGCStart, RecGCEnd, RecEnd:
		// No per-type constraints beyond field zero-ness.
	case RecSample:
		if !state.Valid() {
			return fmt.Errorf("lila: sample record with invalid state %d", state)
		}
	default:
		return fmt.Errorf("lila: unknown record type %d", typ)
	}
	return nil
}

// Writer emits trace records. Implementations write the header at
// construction time; Close flushes any buffered output. Records must
// be written in stream order (the order Validate-checked producers
// emit them); writers do not reorder.
type Writer interface {
	WriteRecord(r *Record) error
	Close() error
}

// Reader yields trace records. Read returns io.EOF after the RecEnd
// record has been delivered. A record Read returns stays valid after
// later reads: a caller may keep every record of a stream. (V2File.Each
// instead passes its fn one Record that it refills for every record,
// valid only during that call.)
type Reader interface {
	Header() Header
	Read() (*Record, error)
}
