package lila

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"lagalyzer/internal/trace"
)

// flattened is a session's record stream in compact form: each stream
// event refers back to the interval or thread sample it comes from,
// and the sorted keys give the stream order.
type flattened struct {
	s      *trace.Session
	events []flatEvent
	keys   []flattenKey // in stream order; uint32(order) indexes events
}

// flatEvent is one call, return, GC bracket, or sample.
type flatEvent struct {
	iv     *trace.Interval     // calls and GC starts
	sample *trace.ThreadSample // samples
	thread trace.ThreadID
	typ    RecType
}

// flatten's equal-time priorities, lowest first.
const (
	prioGCEnd = iota
	prioReturn
	prioSample
	prioCall
	prioGCStart
)

// flattenKey is the sort key of one stream event: its time, then an
// order word packing three tie-breaks whose rules preserve proper
// nesting at equal time stamps. From the high bits down: the priority
// (3 bits: returns close before anything opens, samples in between,
// calls open after, and GC brackets sit innermost, end first and start
// last); the tie (29 bits, biased: the call depth for calls and its
// negation for returns, so shallower calls open first and deeper
// intervals close first); and seq (32 bits), the creation index. The
// packing is total and loses nothing: a tree walk cannot recurse 2^28
// levels deep, and a session cannot hold 2^32 events in memory.
type flattenKey struct {
	time  trace.Time
	order uint64
}

func (a flattenKey) compare(b flattenKey) int {
	if c := cmp.Compare(a.time, b.time); c != 0 {
		return c
	}
	return cmp.Compare(a.order, b.order)
}

// flatten converts an in-memory session back into the record stream a
// profiler would have emitted — thread declarations, then calls,
// returns, GC brackets, and samples in time order, terminated by the
// end record — for WriteSession to encode. It is the inverse of
// treebuild.
//
// GC intervals embedded in episode trees are per-thread *copies* of
// the global collections (Section II-A of the paper); flatten skips
// them and emits the global brackets from Session.GCs instead, so the
// round trip through treebuild reconstructs the copies.
//
// The events come in three runs (episode intervals, GC brackets,
// samples), each sorted, then merged. The sample run, the longest,
// arrives sorted, so its sort is one pass.
func flatten(s *trace.Session) flattened {
	n := 0
	for _, e := range s.Episodes {
		e.Root.Walk(func(iv *trace.Interval, _ int) bool {
			if iv.Kind == trace.KindGC {
				return false // global brackets come from s.GCs
			}
			n += 2
			return true
		})
	}
	nIntervals := n
	n += 2 * len(s.GCs)
	nGC := n - nIntervals
	for _, tick := range s.Ticks {
		n += len(tick.Threads)
	}

	f := flattened{s: s, events: make([]flatEvent, 0, n)}
	keys := make([]flattenKey, 0, n)
	add := func(ev flatEvent, at trace.Time, prio, tie int) {
		seq := len(keys)
		keys = append(keys, flattenKey{time: at, order: uint64(prio)<<61 | uint64(tie+1<<28)<<32 | uint64(seq)})
		f.events = append(f.events, ev)
	}
	for _, e := range s.Episodes {
		e.Root.Walk(func(iv *trace.Interval, depth int) bool {
			if iv.Kind == trace.KindGC {
				return false
			}
			add(flatEvent{iv: iv, thread: e.Thread, typ: RecCall}, iv.Start, prioCall, depth)
			add(flatEvent{thread: e.Thread, typ: RecReturn}, iv.End, prioReturn, -depth)
			return true
		})
	}
	for _, gc := range s.GCs {
		add(flatEvent{iv: gc, typ: RecGCStart}, gc.Start, prioGCStart, 0)
		add(flatEvent{typ: RecGCEnd}, gc.End, prioGCEnd, 0)
	}
	for _, tick := range s.Ticks {
		for i := range tick.Threads {
			th := &tick.Threads[i]
			add(flatEvent{sample: th, thread: th.Thread, typ: RecSample}, tick.Time, prioSample, 0)
		}
	}

	intervals, gcs, samples := keys[:nIntervals], keys[nIntervals:nIntervals+nGC], keys[nIntervals+nGC:]
	for _, run := range [][]flattenKey{intervals, gcs, samples} {
		slices.SortFunc(run, flattenKey.compare)
	}
	f.keys = mergeKeys(make([]flattenKey, 0, n), mergeKeys(make([]flattenKey, 0, nIntervals+nGC), intervals, gcs), samples)
	return f
}

// mergeKeys appends the merge of the sorted runs a and b to dst.
func mergeKeys(dst, a, b []flattenKey) []flattenKey {
	for len(a) > 0 && len(b) > 0 {
		if b[0].compare(a[0]) < 0 {
			dst, b = append(dst, b[0]), b[1:]
		} else {
			dst, a = append(dst, a[0]), a[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// each hands fn every record in stream order. The record is fn's to
// read, not to keep: each reuses it for the next record.
func (f *flattened) each(fn func(*Record) error) error {
	var r Record
	for _, t := range f.s.Threads {
		r = Record{Type: RecThread, Thread: t.ID, Name: t.Name, Daemon: t.Daemon}
		if err := fn(&r); err != nil {
			return err
		}
	}
	for _, k := range f.keys {
		ev := &f.events[uint32(k.order)]
		r = Record{Type: ev.typ, Time: k.time, Thread: ev.thread}
		switch ev.typ {
		case RecCall:
			r.Kind, r.Class, r.Method = ev.iv.Kind, ev.iv.Class, ev.iv.Method
		case RecGCStart:
			r.Major = ev.iv.Major
		case RecSample:
			r.State, r.Stack = ev.sample.State, ev.sample.Stack
		}
		if err := fn(&r); err != nil {
			return err
		}
	}
	r = Record{Type: RecEnd, Time: f.s.End, Count: f.s.ShortCount}
	return fn(&r)
}

// HeaderOf derives the trace header for a session.
func HeaderOf(s *trace.Session) Header {
	return Header{
		App:             s.App,
		SessionID:       s.ID,
		GUIThread:       s.GUIThread,
		FilterThreshold: s.FilterThreshold,
		SamplePeriod:    s.SamplePeriod,
		Start:           s.Start,
	}
}

// Format selects a trace encoding.
type Format int

// Value 1 was the retired v1 stream binary encoding; it stays unused
// so a stale numeric format cannot silently select another encoding.
const (
	// FormatText is the line-oriented, human-readable encoding.
	FormatText Format = 0
	// FormatV2 is the block-indexed binary encoding: string and stack
	// tables up front, checksummed blocks with independent time bases,
	// and a footer index for mmap-style parallel decode.
	FormatV2 Format = 2
)

// String returns "text" or "v2".
func (f Format) String() string {
	switch f {
	case FormatText:
		return "text"
	case FormatV2:
		return "v2"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// ParseFormat recognises "text" and "v2".
func ParseFormat(s string) (Format, error) {
	switch s {
	case "text":
		return FormatText, nil
	case "v2":
		return FormatV2, nil
	case "binary":
		return 0, fmt.Errorf("lila: the v1 binary format is retired (want text or v2)")
	}
	return 0, fmt.Errorf("lila: unknown format %q (want text or v2)", s)
}

// NewWriter returns a Writer for the chosen format, with the header
// already emitted.
func NewWriter(w io.Writer, f Format, h Header) (Writer, error) {
	return NewWriterOptions(w, h, WriteOptions{Format: f})
}

// WriteOptions select a trace encoding together with its tuning knobs.
type WriteOptions struct {
	// Format selects the encoding; the zero value is FormatText.
	Format Format
	// Compression selects the per-block codec. Only FormatV2 is
	// block-structured, so any other format rejects a non-zero value.
	Compression Compression
}

// NewWriterOptions is NewWriter with explicit encoding options.
func NewWriterOptions(w io.Writer, h Header, o WriteOptions) (Writer, error) {
	if o.Compression != CompressionNone && o.Format != FormatV2 {
		return nil, fmt.Errorf("lila: %s format does not support compression (only v2 is block-structured)", o.Format)
	}
	switch o.Format {
	case FormatText:
		return NewTextWriter(w, h)
	case FormatV2:
		return NewV2WriterOptions(w, h, V2WriterOptions{Compression: o.Compression})
	default:
		return nil, fmt.Errorf("lila: unknown format %d (want text or v2)", o.Format)
	}
}

// WriteSession flattens s and writes it to w in the chosen format.
func WriteSession(w io.Writer, f Format, s *trace.Session) error {
	return WriteSessionOptions(w, WriteOptions{Format: f}, s)
}

// WriteSessionOptions is WriteSession with explicit encoding options.
func WriteSessionOptions(w io.Writer, o WriteOptions, s *trace.Session) error {
	lw, err := NewWriterOptions(w, HeaderOf(s), o)
	if err != nil {
		return err
	}
	f := flatten(s)
	if err := f.each(lw.WriteRecord); err != nil {
		return err
	}
	return lw.Close()
}

// NewReader sniffs the encoding of r (by its first bytes) and returns
// the matching Reader. The stream must support nothing beyond
// io.Reader; sniffing is done with a bounded-lookahead wrapper, and a
// recognised LiLa magic with a version this package does not speak
// reports ErrUnsupportedVersion rather than a garbled decode.
func NewReader(r io.Reader) (Reader, error) {
	return NewReaderOptions(r, ReaderOptions{})
}

// sniffReader is an io.Reader with a few bytes of lookahead: enough to
// read the 5-byte binary magic (4 magic bytes + version) and dispatch
// on it, replaying the peeked bytes to whichever reader wins.
type sniffReader struct {
	r   io.Reader
	buf [5]byte
	n   int // peeked bytes in buf
	pos int // replayed so far
}

// peek returns the first byte of the stream without consuming it.
func (s *sniffReader) peek() (byte, error) {
	b, err := s.peekN(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// peekN returns the first n (≤ len(buf)) bytes of the stream without
// consuming them. A short stream yields io.ErrUnexpectedEOF.
func (s *sniffReader) peekN(n int) ([]byte, error) {
	if s.pos > 0 {
		return nil, fmt.Errorf("lila: peek after read")
	}
	for s.n < n {
		m, err := s.r.Read(s.buf[s.n:n])
		s.n += m
		if err != nil {
			if err == io.EOF && s.n > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return s.buf[:n], nil
}

func (s *sniffReader) Read(p []byte) (int, error) {
	if s.pos < s.n {
		n := copy(p, s.buf[s.pos:s.n])
		s.pos += n
		return n, nil
	}
	return s.r.Read(p)
}
