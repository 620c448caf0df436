package lila

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"lagalyzer/internal/trace"
)

// The binary format:
//
//	magic "LILA" + version byte
//	header: app string, then uvarints for session id, gui thread,
//	        filter threshold, sample period, start time
//	records: type byte followed by type-specific fields
//
// Integers are varint-encoded; record times are signed deltas from the
// previous record's time. Strings are interned: a string reference is
// either 0 followed by an inline length-prefixed string (which is
// assigned the next table index), or the 1-based table index of a
// previously seen string. Symbol-heavy traces (every paint call names
// the same few classes) compress well under this scheme.

var binaryMagic = [5]byte{'L', 'I', 'L', 'A', FormatVersion}

// BinaryWriter writes a trace in the binary format.
type BinaryWriter struct {
	w        *bufio.Writer
	buf      []byte
	strings  map[string]uint64
	lastTime trace.Time
	closed   bool
}

// NewBinaryWriter writes the header for h to w and returns a writer
// for the record stream.
func NewBinaryWriter(w io.Writer, h Header) (*BinaryWriter, error) {
	bw := &BinaryWriter{
		w:       bufio.NewWriterSize(w, 1<<16),
		strings: make(map[string]uint64),
	}
	if _, err := bw.w.Write(binaryMagic[:]); err != nil {
		return nil, fmt.Errorf("lila: writing binary magic: %w", err)
	}
	bw.buf = bw.buf[:0]
	bw.appendString(h.App)
	bw.buf = binary.AppendVarint(bw.buf, int64(h.SessionID))
	bw.buf = binary.AppendVarint(bw.buf, int64(h.GUIThread))
	bw.buf = binary.AppendVarint(bw.buf, int64(h.FilterThreshold))
	bw.buf = binary.AppendVarint(bw.buf, int64(h.SamplePeriod))
	bw.buf = binary.AppendVarint(bw.buf, int64(h.Start))
	if _, err := bw.w.Write(bw.buf); err != nil {
		return nil, fmt.Errorf("lila: writing binary header: %w", err)
	}
	return bw, nil
}

// appendString appends a raw (non-interned) length-prefixed string.
func (bw *BinaryWriter) appendString(s string) {
	bw.buf = binary.AppendUvarint(bw.buf, uint64(len(s)))
	bw.buf = append(bw.buf, s...)
}

// appendRef appends an interned string reference.
func (bw *BinaryWriter) appendRef(s string) {
	if id, ok := bw.strings[s]; ok {
		bw.buf = binary.AppendUvarint(bw.buf, id)
		return
	}
	bw.buf = binary.AppendUvarint(bw.buf, 0)
	bw.appendString(s)
	bw.strings[s] = uint64(len(bw.strings) + 1)
}

func (bw *BinaryWriter) appendTime(t trace.Time) {
	bw.buf = binary.AppendVarint(bw.buf, int64(t-bw.lastTime))
	bw.lastTime = t
}

// WriteRecord implements Writer.
func (bw *BinaryWriter) WriteRecord(r *Record) error {
	if bw.closed {
		return fmt.Errorf("lila: write after Close")
	}
	if err := r.Validate(); err != nil {
		return err
	}
	bw.buf = bw.buf[:0]
	bw.buf = append(bw.buf, byte(r.Type))
	switch r.Type {
	case RecThread:
		bw.buf = binary.AppendVarint(bw.buf, int64(r.Thread))
		bw.appendString(r.Name)
		bw.buf = append(bw.buf, b2byte(r.Daemon))
	case RecCall:
		bw.appendTime(r.Time)
		bw.buf = binary.AppendVarint(bw.buf, int64(r.Thread))
		bw.buf = append(bw.buf, byte(r.Kind))
		bw.appendRef(r.Class)
		bw.appendRef(r.Method)
	case RecReturn:
		bw.appendTime(r.Time)
		bw.buf = binary.AppendVarint(bw.buf, int64(r.Thread))
	case RecGCStart:
		bw.appendTime(r.Time)
		bw.buf = append(bw.buf, b2byte(r.Major))
	case RecGCEnd:
		bw.appendTime(r.Time)
	case RecSample:
		bw.appendTime(r.Time)
		bw.buf = binary.AppendVarint(bw.buf, int64(r.Thread))
		bw.buf = append(bw.buf, byte(r.State))
		bw.buf = binary.AppendUvarint(bw.buf, uint64(len(r.Stack)))
		for _, f := range r.Stack {
			bw.buf = append(bw.buf, b2byte(f.Native))
			bw.appendRef(f.Class)
			bw.appendRef(f.Method)
		}
	case RecEnd:
		bw.appendTime(r.Time)
		bw.buf = binary.AppendUvarint(bw.buf, uint64(r.Count))
	}
	if _, err := bw.w.Write(bw.buf); err != nil {
		return fmt.Errorf("lila: writing binary record: %w", err)
	}
	return nil
}

// Close implements Writer.
func (bw *BinaryWriter) Close() error {
	if bw.closed {
		return nil
	}
	bw.closed = true
	if err := bw.w.Flush(); err != nil {
		return fmt.Errorf("lila: flushing binary trace: %w", err)
	}
	return nil
}

func b2byte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// BinaryReader reads a trace in the binary format (fail-stop; for the
// damage-tolerant variant see NewBinaryReaderOptions with Salvage).
//
// Decoding is allocation-lean: records come from a chunked arena,
// string-table entries are interned process-wide exactly once (so
// identical class/method names are shared across sessions), and
// identical sampled stacks within the session collapse onto one
// shared []Frame.
type BinaryReader struct {
	r        *bufio.Reader
	h        Header
	strings  []string
	lastTime trace.Time
	limits   Limits
	records  int
	done     bool

	arena    recArena
	stacks   StackTab
	frameBuf []trace.Frame // per-sample decode scratch, reused
}

// NewBinaryReader parses the header from r and returns a reader for
// the record stream.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	return newBinaryReaderLimits(r, Limits{})
}

// NewBinaryReaderOptions is NewBinaryReader with explicit options.
// With o.Salvage set it returns a salvage-mode reader that buffers the
// record stream and resynchronizes past damage (see BinarySalvageReader);
// otherwise it returns the streaming fail-stop reader with o.Limits
// applied.
func NewBinaryReaderOptions(r io.Reader, o ReaderOptions) (Reader, error) {
	if o.Salvage {
		return NewBinarySalvageReader(r, o.Limits)
	}
	return newBinaryReaderLimits(r, o.Limits)
}

func newBinaryReaderLimits(r io.Reader, limits Limits) (*BinaryReader, error) {
	br := &BinaryReader{r: bufio.NewReaderSize(r, 1<<16), limits: limits.WithDefaults()}
	var magic [5]byte
	if _, err := io.ReadFull(br.r, magic[:]); err != nil {
		return nil, fmt.Errorf("lila: reading binary magic: %w", err)
	}
	if magic != binaryMagic {
		if string(magic[:4]) == "LILA" {
			return nil, fmt.Errorf("%w %d (this is the v1 binary reader)",
				ErrUnsupportedVersion, magic[4])
		}
		return nil, fmt.Errorf("lila: bad magic %q (version %d?)", magic[:4], magic[4])
	}
	var err error
	if br.h.App, err = br.readString(); err != nil {
		return nil, fmt.Errorf("lila: binary header app: %w", err)
	}
	fields := []*int64{}
	var sid, gui, filt, period, start int64
	fields = append(fields, &sid, &gui, &filt, &period, &start)
	for _, f := range fields {
		if *f, err = binary.ReadVarint(br.r); err != nil {
			return nil, fmt.Errorf("lila: binary header: %w", err)
		}
	}
	br.h.SessionID = int(sid)
	br.h.GUIThread = trace.ThreadID(gui)
	br.h.FilterThreshold = trace.Dur(filt)
	br.h.SamplePeriod = trace.Dur(period)
	br.h.Start = trace.Time(start)
	return br, nil
}

func (br *BinaryReader) readString() (string, error) {
	n, err := binary.ReadUvarint(br.r)
	if err != nil {
		return "", err
	}
	if n > uint64(br.limits.MaxStringLen) {
		return "", limitErrf("implausible string length %d", n)
	}
	// Read into pooled scratch and intern: a string seen before (by
	// any session in the process) costs no allocation at all.
	buf := scratchPool.Get().([]byte)
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br.r, buf); err != nil {
		scratchPool.Put(buf[:0])
		return "", err
	}
	s := internBytes(buf)
	scratchPool.Put(buf[:0])
	return s, nil
}

func (br *BinaryReader) readRef() (string, error) {
	id, err := binary.ReadUvarint(br.r)
	if err != nil {
		return "", err
	}
	if id == 0 {
		s, err := br.readString()
		if err != nil {
			return "", err
		}
		if len(br.strings) >= br.limits.MaxStringTable {
			return "", limitErrf("string table exceeds limit %d", br.limits.MaxStringTable)
		}
		br.strings = append(br.strings, s)
		return s, nil
	}
	if id > uint64(len(br.strings)) {
		return "", fmt.Errorf("string ref %d beyond table size %d", id, len(br.strings))
	}
	return br.strings[id-1], nil
}

func (br *BinaryReader) readTime() (trace.Time, error) {
	dt, err := binary.ReadVarint(br.r)
	if err != nil {
		return 0, err
	}
	br.lastTime += trace.Time(dt)
	return br.lastTime, nil
}

// Header implements Reader.
func (br *BinaryReader) Header() Header { return br.h }

// Read implements Reader. It returns io.EOF after the end record.
func (br *BinaryReader) Read() (*Record, error) {
	if br.done {
		return nil, io.EOF
	}
	if br.records >= br.limits.MaxRecords {
		br.done = true
		return nil, limitErrf("lila: record limit %d exceeded", br.limits.MaxRecords)
	}
	rec, err := br.read()
	if err != nil {
		if err == io.EOF {
			br.done = true
			return nil, fmt.Errorf("lila: truncated trace: no end record")
		}
		return nil, err
	}
	br.records++
	if rec.Type == RecEnd {
		br.done = true
	}
	return rec, nil
}

func (br *BinaryReader) read() (*Record, error) {
	tb, err := br.r.ReadByte()
	if err != nil {
		return nil, err
	}
	if int(tb) >= numRecTypes {
		return nil, fmt.Errorf("lila: unknown binary record type %d", tb)
	}
	rec := br.arena.new()
	rec.Type = RecType(tb)
	fail := func(err error) (*Record, error) {
		return nil, fmt.Errorf("lila: reading %s record: %w", rec.Type, err)
	}
	readTID := func() error {
		v, err := binary.ReadVarint(br.r)
		rec.Thread = trace.ThreadID(v)
		return err
	}
	switch rec.Type {
	case RecThread:
		if err := readTID(); err != nil {
			return fail(err)
		}
		if rec.Name, err = br.readString(); err != nil {
			return fail(err)
		}
		d, err := br.r.ReadByte()
		if err != nil {
			return fail(err)
		}
		rec.Daemon = d == 1
	case RecCall:
		if rec.Time, err = br.readTime(); err != nil {
			return fail(err)
		}
		if err := readTID(); err != nil {
			return fail(err)
		}
		k, err := br.r.ReadByte()
		if err != nil {
			return fail(err)
		}
		rec.Kind = trace.Kind(k)
		if rec.Class, err = br.readRef(); err != nil {
			return fail(err)
		}
		if rec.Method, err = br.readRef(); err != nil {
			return fail(err)
		}
	case RecReturn:
		if rec.Time, err = br.readTime(); err != nil {
			return fail(err)
		}
		if err := readTID(); err != nil {
			return fail(err)
		}
	case RecGCStart:
		if rec.Time, err = br.readTime(); err != nil {
			return fail(err)
		}
		m, err := br.r.ReadByte()
		if err != nil {
			return fail(err)
		}
		rec.Major = m == 1
	case RecGCEnd:
		if rec.Time, err = br.readTime(); err != nil {
			return fail(err)
		}
	case RecSample:
		if rec.Time, err = br.readTime(); err != nil {
			return fail(err)
		}
		if err := readTID(); err != nil {
			return fail(err)
		}
		st, err := br.r.ReadByte()
		if err != nil {
			return fail(err)
		}
		rec.State = trace.ThreadState(st)
		n, err := binary.ReadUvarint(br.r)
		if err != nil {
			return fail(err)
		}
		if n > uint64(br.limits.MaxStackDepth) {
			return fail(limitErrf("implausible stack depth %d", n))
		}
		// Decode into the reusable scratch, then collapse onto the
		// session's canonical copy of this exact stack (real samplers
		// see the same few stacks tens of thousands of times).
		if cap(br.frameBuf) < int(n) {
			br.frameBuf = make([]trace.Frame, n)
		}
		br.frameBuf = br.frameBuf[:n]
		for i := range br.frameBuf {
			nb, err := br.r.ReadByte()
			if err != nil {
				return fail(err)
			}
			br.frameBuf[i].Native = nb == 1
			if br.frameBuf[i].Class, err = br.readRef(); err != nil {
				return fail(err)
			}
			if br.frameBuf[i].Method, err = br.readRef(); err != nil {
				return fail(err)
			}
		}
		rec.Stack = br.stacks.Canon(br.frameBuf)
	case RecEnd:
		if rec.Time, err = br.readTime(); err != nil {
			return fail(err)
		}
		n, err := binary.ReadUvarint(br.r)
		if err != nil {
			return fail(err)
		}
		rec.Count = int(n)
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return rec, nil
}
