package lila

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"lagalyzer/internal/trace"
)

// errTruncated marks a record stream that ended without its end record.
var errTruncated = errors.New("truncated trace: no end record")

// maxResyncScan bounds the forward scan for the next plausible record
// boundary after a malformed binary record. Damage wider than this is
// treated as an undecodable tail.
const maxResyncScan = 1 << 16

// maxTimeDelta is the salvage decoder's time-monotonicity guard: a
// record whose delta is negative or jumps the clock by more than a
// day is treated as damage. Valid streams are time-ordered, so their
// deltas are never negative, and no interactive session records a
// 24-hour silence between two adjacent records.
const maxTimeDelta = 24 * 60 * 60 * 1e9

// resyncProbes is how many consecutive records must decode cleanly at
// a candidate offset before the salvage decoder accepts it as a
// record boundary. One record can decode by coincidence from garbage;
// three in a row almost never do.
const resyncProbes = 3

// probeWindow bounds the bytes one candidate's speculative decode may
// consume. Real records are far smaller (the largest, a deep sample,
// runs a few KiB), while garbage that passes the type-byte check can
// otherwise swallow MaxStringLen-sized reads per probe.
const probeWindow = 1 << 14

// scanWorkPerByte scales the per-trace resynchronization work budget:
// a salvage decode may spend at most this many probe bytes per input
// byte before giving up on further resyncs. It keeps the worst case —
// crafted input where every offset starts a plausible-looking record —
// linear in the input size instead of quadratic.
const scanWorkPerByte = 64

// BinarySalvageReader reads a binary trace in salvage mode: the
// record stream is buffered, and a malformed record triggers a
// bounded forward scan for the next plausible record boundary instead
// of a fatal error. Candidate boundaries are validated by speculative
// decoding with record-kind, string-reference, string-plausibility,
// and time-monotonicity sanity checks.
//
// Salvage is best-effort by design: records inside a damaged region
// are lost, and with them any interned-string definitions and time
// deltas they carried, so strings referenced only by lost definitions
// make later records undecodable too (they are dropped the same way),
// and absolute times after a gap can shift earlier by the lost
// deltas. Everything dropped or skipped is accounted in the
// SalvageReport; the decode is a pure function of the input bytes.
type BinarySalvageReader struct {
	h        Header
	data     []byte
	off      int
	strings  []string
	lastTime trace.Time
	limits   Limits
	report   SalvageReport
	records  int
	scanWork int64 // remaining resync probe-byte budget
	done     bool
	flushed  bool

	arena    recArena
	stacks   StackTab
	frameBuf []trace.Frame // per-sample decode scratch, reused
	// probing marks speculative decodes (resync plausibility probes).
	// Probe strings are never interned: a rolled-back probe over
	// damaged bytes must not leak byte soup into the process-wide
	// interner.
	probing bool
}

// NewBinarySalvageReader buffers the trace from r (bounded by
// limits.MaxTraceBytes) and parses its header. A trace whose magic or
// header is unreadable fails — without the header the records cannot
// be attributed to a session.
func NewBinarySalvageReader(r io.Reader, limits Limits) (*BinarySalvageReader, error) {
	limits = limits.WithDefaults()
	data, err := io.ReadAll(io.LimitReader(r, limits.MaxTraceBytes+1))
	if err != nil {
		// A transport error mid-slurp still leaves a salvageable
		// prefix; only a totally unreadable source is fatal.
		if len(data) == 0 {
			return nil, fmt.Errorf("lila: reading trace for salvage: %w", err)
		}
	}
	d := &BinarySalvageReader{data: data, limits: limits}
	d.scanWork = scanWorkPerByte * int64(len(data))
	if d.scanWork < 1<<20 {
		d.scanWork = 1 << 20
	}
	if err != nil {
		d.report.note(fmt.Errorf("lila: reading trace for salvage: %w", err))
		d.report.TruncatedTail = true
	}
	if int64(len(data)) > limits.MaxTraceBytes {
		d.data = data[:limits.MaxTraceBytes]
		d.report.note(fmt.Errorf("lila: trace exceeds %d-byte salvage buffer; tail dropped", limits.MaxTraceBytes))
		d.report.TruncatedTail = true
	}
	if len(d.data) < len(binaryMagic) || [5]byte(d.data[:5]) != binaryMagic {
		if len(d.data) >= len(binaryMagic) && string(d.data[:4]) == "LILA" {
			return nil, fmt.Errorf("%w %d (this is the v1 binary salvage reader)",
				ErrUnsupportedVersion, d.data[4])
		}
		return nil, fmt.Errorf("lila: bad magic in salvage input")
	}
	d.off = len(binaryMagic)
	if err := d.readHeader(); err != nil {
		return nil, fmt.Errorf("lila: binary header: %w", err)
	}
	return d, nil
}

func (d *BinarySalvageReader) readHeader() error {
	app, err := d.str()
	if err != nil {
		return err
	}
	d.h.App = app
	vals := make([]int64, 5)
	for i := range vals {
		if vals[i], err = d.varint(); err != nil {
			return err
		}
	}
	d.h.SessionID = int(vals[0])
	d.h.GUIThread = trace.ThreadID(vals[1])
	d.h.FilterThreshold = trace.Dur(vals[2])
	d.h.SamplePeriod = trace.Dur(vals[3])
	d.h.Start = trace.Time(vals[4])
	return nil
}

// Header implements Reader.
func (d *BinarySalvageReader) Header() Header { return d.h }

// Salvage implements SalvageReporter.
func (d *BinarySalvageReader) Salvage() *SalvageReport { return &d.report }

// Primitive slice decoders. Each fails cleanly at the end of data.

var errShort = errors.New("unexpected end of data")

func (d *BinarySalvageReader) byteVal() (byte, error) {
	if d.off >= len(d.data) {
		return 0, errShort
	}
	b := d.data[d.off]
	d.off++
	return b, nil
}

func (d *BinarySalvageReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, errShort
	}
	d.off += n
	return v, nil
}

func (d *BinarySalvageReader) varint() (int64, error) {
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		return 0, errShort
	}
	d.off += n
	return v, nil
}

func (d *BinarySalvageReader) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.limits.MaxStringLen) {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	if d.off+int(n) > len(d.data) {
		return "", errShort
	}
	raw := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	if !plausibleBytes(raw) {
		return "", fmt.Errorf("implausible string %q", raw)
	}
	if d.probing {
		// Plain copy, not interned: a rolled-back probe over damaged
		// bytes must not leak byte soup into the process-wide interner.
		return string(raw), nil
	}
	return internBytes(raw), nil
}

func (d *BinarySalvageReader) ref() (string, error) {
	id, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if id == 0 {
		s, err := d.str()
		if err != nil {
			return "", err
		}
		if len(d.strings) >= d.limits.MaxStringTable {
			return "", fmt.Errorf("string table exceeds limit %d", d.limits.MaxStringTable)
		}
		d.strings = append(d.strings, s)
		return s, nil
	}
	if id > uint64(len(d.strings)) {
		return "", fmt.Errorf("string ref %d beyond table size %d", id, len(d.strings))
	}
	return d.strings[id-1], nil
}

func (d *BinarySalvageReader) time() (trace.Time, error) {
	dt, err := d.varint()
	if err != nil {
		return 0, err
	}
	// Monotonicity guard: valid streams are time-ordered (deltas are
	// never negative) and never silent for a day between records.
	if dt < 0 || dt > maxTimeDelta {
		return 0, fmt.Errorf("implausible time delta %d", dt)
	}
	d.lastTime += trace.Time(dt)
	return d.lastTime, nil
}

// plausibleBytes rejects byte soup masquerading as a symbol: JVM
// class/method/thread names never contain control characters.
func plausibleBytes(b []byte) bool {
	for i := 0; i < len(b); i++ {
		if b[i] < 0x20 {
			return false
		}
	}
	return true
}

// snapshot and restore capture the decoder state around speculative
// decodes. The string table only ever appends, so restoring its
// length suffices.
type salvageState struct {
	off      int
	nstrings int
	lastTime trace.Time
}

func (d *BinarySalvageReader) snapshot() salvageState {
	return salvageState{d.off, len(d.strings), d.lastTime}
}

func (d *BinarySalvageReader) restore(s salvageState) {
	d.off = s.off
	d.strings = d.strings[:s.nstrings]
	d.lastTime = s.lastTime
}

// decodeRecord decodes one record at the current offset, mirroring
// BinaryReader.read over the buffered slice.
func (d *BinarySalvageReader) decodeRecord() (*Record, error) {
	tb, err := d.byteVal()
	if err != nil {
		return nil, err
	}
	if int(tb) >= numRecTypes {
		return nil, fmt.Errorf("unknown binary record type %d", tb)
	}
	var rec *Record
	if d.probing {
		// Probe records are discarded on rollback; keep them off the
		// arena so a long resync scan can't strand slab slots.
		rec = &Record{Type: RecType(tb)}
	} else {
		rec = d.arena.new()
		rec.Type = RecType(tb)
	}
	readTID := func() error {
		v, err := d.varint()
		rec.Thread = trace.ThreadID(v)
		return err
	}
	switch rec.Type {
	case RecThread:
		if err := readTID(); err != nil {
			return nil, err
		}
		if rec.Name, err = d.str(); err != nil {
			return nil, err
		}
		db, err := d.byteVal()
		if err != nil {
			return nil, err
		}
		rec.Daemon = db == 1
	case RecCall:
		if rec.Time, err = d.time(); err != nil {
			return nil, err
		}
		if err := readTID(); err != nil {
			return nil, err
		}
		k, err := d.byteVal()
		if err != nil {
			return nil, err
		}
		rec.Kind = trace.Kind(k)
		if rec.Class, err = d.ref(); err != nil {
			return nil, err
		}
		if rec.Method, err = d.ref(); err != nil {
			return nil, err
		}
	case RecReturn:
		if rec.Time, err = d.time(); err != nil {
			return nil, err
		}
		if err := readTID(); err != nil {
			return nil, err
		}
	case RecGCStart:
		if rec.Time, err = d.time(); err != nil {
			return nil, err
		}
		m, err := d.byteVal()
		if err != nil {
			return nil, err
		}
		rec.Major = m == 1
	case RecGCEnd:
		if rec.Time, err = d.time(); err != nil {
			return nil, err
		}
	case RecSample:
		if rec.Time, err = d.time(); err != nil {
			return nil, err
		}
		if err := readTID(); err != nil {
			return nil, err
		}
		st, err := d.byteVal()
		if err != nil {
			return nil, err
		}
		rec.State = trace.ThreadState(st)
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(d.limits.MaxStackDepth) {
			return nil, fmt.Errorf("implausible stack depth %d", n)
		}
		if n > 0 {
			if cap(d.frameBuf) < int(n) {
				d.frameBuf = make([]trace.Frame, n)
			}
			d.frameBuf = d.frameBuf[:n]
			for i := range d.frameBuf {
				nb, err := d.byteVal()
				if err != nil {
					return nil, err
				}
				d.frameBuf[i].Native = nb == 1
				if d.frameBuf[i].Class, err = d.ref(); err != nil {
					return nil, err
				}
				if d.frameBuf[i].Method, err = d.ref(); err != nil {
					return nil, err
				}
			}
			if d.probing {
				rec.Stack = d.frameBuf // transient; dies with the probe
			} else {
				rec.Stack = d.stacks.Canon(d.frameBuf)
			}
		}
	case RecEnd:
		if rec.Time, err = d.time(); err != nil {
			return nil, err
		}
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		rec.Count = int(n)
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return rec, nil
}

// plausible reports whether off looks like a record boundary: several
// consecutive records must decode cleanly from there (or the stream
// must end cleanly sooner). State is rolled back either way.
func (d *BinarySalvageReader) plausible(off int) bool {
	save := d.snapshot()
	d.probing = true
	defer func() {
		// Bill the probe bytes consumed against the scan budget before
		// rolling back.
		d.scanWork -= int64(d.off-off) + 1
		d.restore(save)
		d.probing = false
	}()
	d.off = off
	for i := 0; i < resyncProbes; i++ {
		if d.off >= len(d.data) {
			// Reaching the exact end of data mid-probe is consistent
			// with a truncated but otherwise well-formed tail.
			return i > 0
		}
		if d.off-off > probeWindow {
			// No real record run is this large; garbage that decodes
			// into giant speculative reads is not a boundary.
			return false
		}
		rec, err := d.decodeRecord()
		if err != nil {
			return false
		}
		if rec.Type == RecEnd {
			return true
		}
	}
	return true
}

// resync scans forward from the damage for the next plausible record
// boundary. It returns false when no boundary exists within the scan
// budget (the tail is dropped).
func (d *BinarySalvageReader) resync(from int) bool {
	limit := from + maxResyncScan
	if limit > len(d.data) {
		limit = len(d.data)
	}
	for cand := from + 1; cand < limit; cand++ {
		if d.scanWork <= 0 {
			d.report.note(fmt.Errorf("lila: resync scan budget exhausted at offset %d", cand))
			return false
		}
		if !d.plausible(cand) {
			continue
		}
		d.report.BytesSkipped += int64(cand - from)
		d.report.RecordsDropped++
		d.report.Resyncs++
		d.off = cand
		return true
	}
	return false
}

// finishStream publishes salvage metrics exactly once per trace.
func (d *BinarySalvageReader) finishStream() {
	d.done = true
	if d.flushed {
		return
	}
	d.flushed = true
	d.report.flushMetrics()
}

// Read implements Reader. It returns io.EOF after the end record, or
// after the decodable input is exhausted (TruncatedTail set in the
// report); damage never surfaces as an error, only resource-limit
// violations do.
func (d *BinarySalvageReader) Read() (*Record, error) {
	if d.done {
		return nil, io.EOF
	}
	for {
		if d.off >= len(d.data) {
			d.report.note(errTruncated)
			d.report.TruncatedTail = true
			d.finishStream()
			return nil, io.EOF
		}
		if d.records >= d.limits.MaxRecords {
			d.finishStream()
			return nil, limitErrf("lila: record limit %d exceeded", d.limits.MaxRecords)
		}
		start := d.off
		save := d.snapshot()
		rec, err := d.decodeRecord()
		if err == nil {
			d.records++
			d.report.RecordsKept++
			if rec.Type == RecEnd {
				d.finishStream()
			}
			return rec, nil
		}
		d.restore(save)
		d.report.note(fmt.Errorf("lila: binary record at offset %d: %w", start, err))
		if !d.resync(start) {
			d.report.BytesSkipped += int64(len(d.data) - start)
			d.report.RecordsDropped++
			d.report.TruncatedTail = true
			d.finishStream()
			return nil, io.EOF
		}
	}
}
