package lila

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"lagalyzer/internal/trace"
)

// The text format is line-oriented. A trace starts with a header block
// of "#key value" lines terminated by the first record line. Record
// lines are space-separated fields:
//
//	T <tid> <name-quoted> <daemon 0|1>
//	C <ns> <tid> <kind> <class> <method>
//	R <ns> <tid>
//	G <ns> <major 0|1>
//	H <ns>
//	S <ns> <tid> <state> <stack>
//	E <ns> <shortcount>
//
// Stack frames are leaf-first, ';'-separated, each "class#method" with
// a '*' prefix marking native frames; "-" denotes an empty stack.
// Class and method names must not contain whitespace, ';', or '#'
// (true of JVM symbols).

// TextWriter writes a trace in the text format.
type TextWriter struct {
	w      *bufio.Writer
	closed bool
	err    error
}

// NewTextWriter writes the header for h to w and returns a writer for
// the record stream.
func NewTextWriter(w io.Writer, h Header) (*TextWriter, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	fmt.Fprintf(bw, "#lila text %d\n", FormatVersion)
	fmt.Fprintf(bw, "#app %s\n", strconv.Quote(h.App))
	fmt.Fprintf(bw, "#session %d\n", h.SessionID)
	fmt.Fprintf(bw, "#gui %d\n", h.GUIThread)
	fmt.Fprintf(bw, "#filter %d\n", int64(h.FilterThreshold))
	fmt.Fprintf(bw, "#sampleperiod %d\n", int64(h.SamplePeriod))
	fmt.Fprintf(bw, "#start %d\n", int64(h.Start))
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("lila: writing text header: %w", err)
	}
	return &TextWriter{w: bw}, nil
}

func checkSymbol(role, s string) error {
	if strings.ContainsAny(s, " \t\n;#") {
		return fmt.Errorf("lila: %s %q contains reserved characters", role, s)
	}
	return nil
}

// WriteRecord implements Writer.
func (tw *TextWriter) WriteRecord(r *Record) error {
	if tw.err != nil {
		return tw.err
	}
	if tw.closed {
		return fmt.Errorf("lila: write after Close")
	}
	if err := r.Validate(); err != nil {
		return err
	}
	switch r.Type {
	case RecThread:
		fmt.Fprintf(tw.w, "T %d %s %d\n", r.Thread, strconv.Quote(r.Name), b2i(r.Daemon))
	case RecCall:
		if err := checkSymbol("class", r.Class); err != nil {
			return err
		}
		if err := checkSymbol("method", r.Method); err != nil {
			return err
		}
		fmt.Fprintf(tw.w, "C %d %d %s %s %s\n", int64(r.Time), r.Thread, r.Kind, emptyDash(r.Class), emptyDash(r.Method))
	case RecReturn:
		fmt.Fprintf(tw.w, "R %d %d\n", int64(r.Time), r.Thread)
	case RecGCStart:
		fmt.Fprintf(tw.w, "G %d %d\n", int64(r.Time), b2i(r.Major))
	case RecGCEnd:
		fmt.Fprintf(tw.w, "H %d\n", int64(r.Time))
	case RecSample:
		stack, err := formatStack(r.Stack)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw.w, "S %d %d %s %s\n", int64(r.Time), r.Thread, r.State, stack)
	case RecEnd:
		fmt.Fprintf(tw.w, "E %d %d\n", int64(r.Time), r.Count)
	}
	return nil
}

// Close flushes buffered output. It does not write an end record; the
// producer is responsible for emitting RecEnd.
func (tw *TextWriter) Close() error {
	if tw.closed {
		return nil
	}
	tw.closed = true
	if err := tw.w.Flush(); err != nil {
		tw.err = err
		return fmt.Errorf("lila: flushing text trace: %w", err)
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func emptyDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func dashEmpty(s string) string {
	if s == "-" {
		return ""
	}
	return s
}

func formatStack(stack []trace.Frame) (string, error) {
	if len(stack) == 0 {
		return "-", nil
	}
	var b strings.Builder
	for i, f := range stack {
		if err := checkSymbol("frame class", f.Class); err != nil {
			return "", err
		}
		if err := checkSymbol("frame method", f.Method); err != nil {
			return "", err
		}
		if i > 0 {
			b.WriteByte(';')
		}
		if f.Native {
			b.WriteByte('*')
		}
		b.WriteString(f.Class)
		b.WriteByte('#')
		b.WriteString(f.Method)
	}
	return b.String(), nil
}

// parseStack parses a ';'-separated stack into the reader's scratch
// buffer, each symbol through the reader's table, and returns the
// session-canonical shared slice for that exact stack (see StackTab).
func (tr *TextReader) parseStack(s string) ([]trace.Frame, error) {
	if s == "-" {
		return nil, nil
	}
	tr.frameBuf = tr.frameBuf[:0]
	for len(s) > 0 {
		p := s
		if i := strings.IndexByte(s, ';'); i >= 0 {
			p, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		f := trace.Frame{}
		if strings.HasPrefix(p, "*") {
			f.Native = true
			p = p[1:]
		}
		class, method, ok := strings.Cut(p, "#")
		if !ok || class == "" || method == "" {
			return nil, fmt.Errorf("lila: malformed stack frame %q", p)
		}
		f.Class, f.Method = tr.sym(class), tr.sym(method)
		tr.frameBuf = append(tr.frameBuf, f)
	}
	return tr.stacks.Canon(tr.frameBuf), nil
}

// TextReader reads a trace in the text format. Like the v2 reader,
// decoding is allocation-lean: records come from a chunked arena,
// equal symbols share one string per reader, and identical sampled
// stacks share one canonical []Frame per session.
type TextReader struct {
	s            *bufio.Scanner
	h            Header
	line         int
	done         bool
	sawEnd       bool
	unterminated bool // final line had no newline (set by the split func)
	limits       Limits
	report       *SalvageReport // nil outside salvage mode
	records      int
	flushed      bool

	arena    recArena
	syms     map[string]string // symbol table: each distinct token, copied once
	stacks   StackTab
	frameBuf []trace.Frame // per-sample parse scratch, reused
}

// sym returns the reader's one copy of the token s. The copy does not
// pin the line s was cut from, and the table dies with the reader.
func (tr *TextReader) sym(s string) string {
	if c, ok := tr.syms[s]; ok {
		return c
	}
	if tr.syms == nil {
		tr.syms = make(map[string]string)
	}
	c := strings.Clone(s)
	tr.syms[c] = c
	return c
}

// NewTextReader parses the header from r and returns a reader for the
// record stream.
func NewTextReader(r io.Reader) (*TextReader, error) {
	return NewTextReaderOptions(r, ReaderOptions{})
}

// NewTextReaderOptions is NewTextReader with explicit options. In
// salvage mode a malformed record line is skipped (accounted in the
// SalvageReport) instead of failing the stream, and a missing end
// record yields a truncated-tail report instead of an error. The
// header block must still parse — a trace whose header is destroyed
// cannot be attributed to a session and fails either way.
func NewTextReaderOptions(r io.Reader, o ReaderOptions) (*TextReader, error) {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 1<<16), 1<<22)
	tr := &TextReader{s: s, limits: o.Limits.WithDefaults(), report: newReport(o.Salvage)}
	// Track whether the stream's final line lost its newline: a
	// truncation can cut a record mid-line yet leave a shorter,
	// still-parseable prefix (a sample line minus half its stack), so
	// salvage mode must distrust an unterminated final line.
	s.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		if atEOF && err == nil && tok != nil && adv == len(data) &&
			len(data) > 0 && data[len(data)-1] != '\n' {
			tr.unterminated = true
		}
		return adv, tok, err
	})
	if err := tr.readHeader(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Salvage implements SalvageReporter; it returns nil unless the reader
// was opened in salvage mode.
func (tr *TextReader) Salvage() *SalvageReport { return tr.report }

// finishStream publishes salvage metrics exactly once per trace.
func (tr *TextReader) finishStream() {
	if tr.flushed || tr.report == nil {
		return
	}
	tr.flushed = true
	tr.report.flushMetrics()
}

func (tr *TextReader) readHeader() error {
	want := []string{"#lila", "#app", "#session", "#gui", "#filter", "#sampleperiod", "#start"}
	for _, key := range want {
		if !tr.s.Scan() {
			return fmt.Errorf("lila: truncated text header (missing %s): %v", key, tr.s.Err())
		}
		tr.line++
		line := tr.s.Text()
		fields := strings.Fields(line)
		if len(fields) < 2 || fields[0] != key {
			return fmt.Errorf("lila: text header line %d: got %q, want %s", tr.line, line, key)
		}
		var err error
		switch key {
		case "#lila":
			if len(fields) != 3 || fields[1] != "text" {
				return fmt.Errorf("lila: not a text trace: %q", line)
			}
			v, convErr := strconv.Atoi(fields[2])
			if convErr != nil {
				return fmt.Errorf("lila: malformed text format version %q", fields[2])
			}
			if v != FormatVersion {
				return fmt.Errorf("%w %d (text traces are v%d)",
					ErrUnsupportedVersion, v, FormatVersion)
			}
		case "#app":
			tr.h.App, err = strconv.Unquote(strings.TrimSpace(line[len("#app "):]))
		case "#session":
			tr.h.SessionID, err = strconv.Atoi(fields[1])
		case "#gui":
			var v int64
			v, err = strconv.ParseInt(fields[1], 10, 32)
			tr.h.GUIThread = trace.ThreadID(v)
		case "#filter":
			var v int64
			v, err = strconv.ParseInt(fields[1], 10, 64)
			tr.h.FilterThreshold = trace.Dur(v)
		case "#sampleperiod":
			var v int64
			v, err = strconv.ParseInt(fields[1], 10, 64)
			tr.h.SamplePeriod = trace.Dur(v)
		case "#start":
			var v int64
			v, err = strconv.ParseInt(fields[1], 10, 64)
			tr.h.Start = trace.Time(v)
		}
		if err != nil {
			return fmt.Errorf("lila: text header line %d (%q): %w", tr.line, line, err)
		}
	}
	return nil
}

// Header implements Reader.
func (tr *TextReader) Header() Header { return tr.h }

// Read implements Reader. It returns io.EOF after the end record.
func (tr *TextReader) Read() (*Record, error) {
	if tr.done {
		return nil, io.EOF
	}
	for tr.s.Scan() {
		tr.line++
		raw := tr.s.Text()
		line := strings.TrimSpace(raw)
		if tr.unterminated && tr.report != nil {
			// Truncation cut this line short; even if its prefix still
			// parses, trusting it would smuggle a mutilated record
			// (e.g. a sample missing half its stack) into the session.
			tr.done = true
			tr.report.TruncatedTail = true
			if line != "" && !strings.HasPrefix(line, "#") {
				tr.report.note(fmt.Errorf("lila: text line %d: unterminated final line", tr.line))
				tr.report.RecordsDropped++
				tr.report.BytesSkipped += int64(len(raw))
			}
			tr.finishStream()
			return nil, io.EOF
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if tr.records >= tr.limits.MaxRecords {
			tr.done = true
			tr.finishStream()
			return nil, limitErrf("lila: text line %d: record limit %d exceeded", tr.line, tr.limits.MaxRecords)
		}
		rec, err := tr.parseLine(line)
		if err != nil {
			err = fmt.Errorf("lila: text line %d: %w", tr.line, err)
			if tr.report != nil {
				// Salvage: drop the malformed line and resynchronize
				// at the next one (lines are self-delimiting).
				tr.report.note(err)
				tr.report.RecordsDropped++
				tr.report.BytesSkipped += int64(len(raw)) + 1
				tr.report.Resyncs++
				continue
			}
			return nil, err
		}
		tr.records++
		if tr.report != nil {
			tr.report.RecordsKept++
		}
		if rec.Type == RecEnd {
			tr.done = true
			tr.sawEnd = true
			tr.finishStream()
		}
		return rec, nil
	}
	tr.done = true
	if err := tr.s.Err(); err != nil {
		if tr.report != nil {
			tr.report.note(err)
			tr.report.TruncatedTail = true
			tr.finishStream()
			return nil, io.EOF
		}
		return nil, fmt.Errorf("lila: reading text trace: %w", err)
	}
	if tr.report != nil {
		tr.report.note(errTruncated)
		tr.report.TruncatedTail = true
		tr.finishStream()
		return nil, io.EOF
	}
	return nil, fmt.Errorf("lila: truncated trace: no end record")
}

func (tr *TextReader) parseLine(line string) (*Record, error) {
	fields := strings.Fields(line)
	op, args := fields[0], fields[1:]
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("record %q has %d fields, want %d", op, len(args), n)
		}
		return nil
	}
	parseTime := func(s string) (trace.Time, error) {
		v, err := strconv.ParseInt(s, 10, 64)
		return trace.Time(v), err
	}
	parseTID := func(s string) (trace.ThreadID, error) {
		v, err := strconv.ParseInt(s, 10, 32)
		return trace.ThreadID(v), err
	}

	rec := tr.arena.new()
	var err error
	switch op {
	case "T":
		// The quoted name may contain spaces; re-split carefully.
		if len(args) < 3 {
			return nil, fmt.Errorf("thread record has %d fields, want 3", len(args))
		}
		rec.Type = RecThread
		if rec.Thread, err = parseTID(args[0]); err != nil {
			return nil, err
		}
		quoted := strings.Join(args[1:len(args)-1], " ")
		if len(quoted) > tr.limits.MaxStringLen {
			return nil, limitErrf("thread name exceeds string limit %d", tr.limits.MaxStringLen)
		}
		if rec.Name, err = strconv.Unquote(quoted); err != nil {
			return nil, fmt.Errorf("thread name %q: %w", quoted, err)
		}
		rec.Name = tr.sym(rec.Name)
		rec.Daemon = args[len(args)-1] == "1"
	case "C":
		if err = need(5); err != nil {
			return nil, err
		}
		rec.Type = RecCall
		if rec.Time, err = parseTime(args[0]); err != nil {
			return nil, err
		}
		if rec.Thread, err = parseTID(args[1]); err != nil {
			return nil, err
		}
		if rec.Kind, err = trace.ParseKind(args[2]); err != nil {
			return nil, err
		}
		if len(args[3]) > tr.limits.MaxStringLen || len(args[4]) > tr.limits.MaxStringLen {
			return nil, limitErrf("symbol exceeds string limit %d", tr.limits.MaxStringLen)
		}
		rec.Class = tr.sym(dashEmpty(args[3]))
		rec.Method = tr.sym(dashEmpty(args[4]))
	case "R":
		if err = need(2); err != nil {
			return nil, err
		}
		rec.Type = RecReturn
		if rec.Time, err = parseTime(args[0]); err != nil {
			return nil, err
		}
		if rec.Thread, err = parseTID(args[1]); err != nil {
			return nil, err
		}
	case "G":
		if err = need(2); err != nil {
			return nil, err
		}
		rec.Type = RecGCStart
		if rec.Time, err = parseTime(args[0]); err != nil {
			return nil, err
		}
		rec.Major = args[1] == "1"
	case "H":
		if err = need(1); err != nil {
			return nil, err
		}
		rec.Type = RecGCEnd
		if rec.Time, err = parseTime(args[0]); err != nil {
			return nil, err
		}
	case "S":
		if err = need(4); err != nil {
			return nil, err
		}
		rec.Type = RecSample
		if rec.Time, err = parseTime(args[0]); err != nil {
			return nil, err
		}
		if rec.Thread, err = parseTID(args[1]); err != nil {
			return nil, err
		}
		if rec.State, err = trace.ParseThreadState(args[2]); err != nil {
			return nil, err
		}
		if rec.Stack, err = tr.parseStack(args[3]); err != nil {
			return nil, err
		}
		if len(rec.Stack) > tr.limits.MaxStackDepth {
			return nil, limitErrf("stack depth %d exceeds limit %d", len(rec.Stack), tr.limits.MaxStackDepth)
		}
	case "E":
		if err = need(2); err != nil {
			return nil, err
		}
		rec.Type = RecEnd
		if rec.Time, err = parseTime(args[0]); err != nil {
			return nil, err
		}
		if rec.Count, err = strconv.Atoi(args[1]); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown record %q", op)
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return rec, nil
}
