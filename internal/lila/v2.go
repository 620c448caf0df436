package lila

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"lagalyzer/internal/trace"
)

// The v2 format is block-structured and indexed, designed so readers
// can map the file into memory and decode only the blocks an analysis
// needs:
//
//	file      := magic header stringtab stacktab block* sentinel index trailer
//	magic     := "LILA" 0x02
//	header    := str(app) varint(session) varint(gui) varint(filter)
//	             varint(sampleperiod) varint(start)
//	str(s)    := uvarint(len) bytes
//	stringtab := uvarint(count) str*                      (ref 0 = "", ref i = entry i-1)
//	stacktab  := uvarint(count) stack*                    (ref 0 = empty, ref i = entry i-1)
//	stack     := uvarint(nframes) frame*                  (leaf first)
//	frame     := byte(flags: bit0 native) uvarint(classRef) uvarint(methodRef)
//	block     := rawblock | deflateblock
//	rawblock  := uvarint(storedLen > 0) uvarint(recordCount > 0)
//	             varint(baseTime) u32le(crc32c(stored)) stored
//	deflateblock := uvarint(storedLen > 0) uvarint(0) uvarint(recordCount)
//	             uvarint(inflatedLen) varint(baseTime) u32le(crc32c(stored)) stored
//	sentinel  := uvarint(0)                               (ends the block sequence)
//	index     := uvarint(blockCount) entry*
//	entry     := uvarint(offset) uvarint(length) uvarint(recordCount)
//	             varint(minTime) varint(maxTime) uvarint(threadBits) uvarint(flags)
//	             [uvarint(inflatedLen) iff flags&compressed]
//	trailer   := u64le(indexOffset) u32le(indexLen) u32le(crc32c(index)) "LILAIDX2"
//
// Unlike v1, every string and every distinct sampled call stack is
// written exactly once, up front; records reference them by table
// index, so the per-record hot path of a reader is a handful of varint
// reads and two slice lookups — no hashing, interning, or frame
// decoding. Record times are signed deltas from the previous record
// *within the block*, with the block's first delta taken from the
// header's baseTime: blocks decode independently, in any order, and a
// block lost to damage never shifts the absolute times of the blocks
// after it (the v1 salvage decoder cannot make that promise).
//
// The footer index carries per-block offsets, record counts, time
// spans, a 64-bit thread bitmap (bit tid%64 set for every thread with
// records in the block), and a global flag (the block holds thread
// declarations, GC brackets, or the end record). Selective readers
// skip blocks whose index entry cannot match their RecordFilter.
//
// Blocks may be individually DEFLATE-compressed (v2.1). A record
// count of 0 in the block header — impossible for a raw block, whose
// count is always positive — escapes into the compressed framing: the
// true record count and the inflated payload length follow, and the
// stored bytes are the flate stream of the payload. The CRC always
// covers the *stored* bytes, so damage is detected before any
// inflation, and a compressed index entry carries the inflated length
// after its flags, so selective readers still skip untouched blocks
// without inflating anything. The writer compresses per block and
// keeps whichever form is smaller, so pathological payloads never
// grow; uncompressed writes are byte-identical to v2.0.
//
// Damage tolerance is per block: each block carries a CRC of its
// stored bytes and the index carries its own CRC, so a salvage reader
// drops exactly the blocks that fail their checksum — an itemized
// loss, with no resynchronization scan — and survives a destroyed
// index by re-framing blocks from their self-describing headers.

// V2FormatVersion is the version byte of the block-indexed format.
const V2FormatVersion = 2

// v2Magic opens every v2 trace; it shares the "LILA" prefix with the
// v1 binary magic so version sniffing is uniform.
var v2Magic = [5]byte{'L', 'I', 'L', 'A', V2FormatVersion}

// v2TrailerMagic closes every v2 trace.
var v2TrailerMagic = [8]byte{'L', 'I', 'L', 'A', 'I', 'D', 'X', '2'}

// v2TrailerLen is the fixed byte length of the trailer.
const v2TrailerLen = 8 + 4 + 4 + 8

// DefaultV2BlockRecords is the records-per-block granularity of the
// writer. Blocks are the unit of selective decode and of salvage loss,
// so the default balances skip granularity against per-block overhead.
const DefaultV2BlockRecords = 4096

// v2CRC is the Castagnoli table shared by writer and readers.
var v2CRC = crc32.MakeTable(crc32.Castagnoli)

// v2 index entry flag bits.
const (
	// v2FlagGlobal marks a block containing records that apply to every
	// thread (thread declarations, GC brackets, the end record); such
	// blocks are decoded by every selective read.
	v2FlagGlobal = 1 << 0
	// v2FlagCompressed marks a block whose payload is stored as a raw
	// DEFLATE stream; the index entry then carries the inflated length
	// after its flags. The block's own header is authoritative for
	// decode (the count-0 escape, see the format comment); the index
	// flag exists so selective readers can account for compression
	// without touching the block.
	v2FlagCompressed = 1 << 1
)

// Compression selects the per-block codec of the v2 writer. It is a
// property of the encoding pass, not the format: readers accept raw
// and compressed blocks side by side in one file.
type Compression int

const (
	// CompressionNone stores every block raw (the v2.0 encoding).
	CompressionNone Compression = iota
	// CompressionFlate DEFLATE-compresses each block independently,
	// keeping a block raw when compression would not shrink it.
	CompressionFlate
)

// String returns "none" or "flate".
func (c Compression) String() string {
	switch c {
	case CompressionNone:
		return "none"
	case CompressionFlate:
		return "flate"
	default:
		return fmt.Sprintf("compression(%d)", int(c))
	}
}

// ParseCompression recognises "none" and "flate".
func ParseCompression(s string) (Compression, error) {
	switch s {
	case "none", "":
		return CompressionNone, nil
	case "flate":
		return CompressionFlate, nil
	}
	return 0, fmt.Errorf("lila: unknown compression %q (want none or flate)", s)
}

// threadBit maps a thread ID onto the 64-bit per-block thread bitmap.
func threadBit(id trace.ThreadID) uint64 {
	return 1 << (uint64(uint32(id)) % 64)
}

// V2WriterOptions tune the v2 writer beyond its defaults.
type V2WriterOptions struct {
	// BlockRecords caps the records per block; 0 takes
	// DefaultV2BlockRecords.
	BlockRecords int
	// Compression selects the per-block codec; the zero value stores
	// blocks raw.
	Compression Compression
}

// V2Writer writes a trace in the v2 block-indexed format. The string
// and stack tables precede the blocks in the file, so the writer
// encodes each record into its block payload as it arrives, keeping
// only the encoded bytes and the tables in memory, and emits the
// complete file on Close. A sample's Stack must not change after it
// has been written: the writer recognises a stack it has already
// seen by its first-frame pointer and length.
type V2Writer struct {
	w        io.Writer
	h        Header
	opts     V2WriterOptions
	enc      v2enc // enc.buf holds the block payloads, back to back
	blocks   []pendingBlock
	cur      pendingBlock // the block being filled
	lastTime trace.Time   // running time base across blocks
	closed   bool
}

// pendingBlock is a block whose payload is encoded but not yet framed.
type pendingBlock struct {
	start, end int // payload bytes within the writer's payload buffer
	meta       blockMeta
	baseTime   trace.Time
	timed      bool // meta.minTime/maxTime hold a record time
}

// NewV2Writer returns a Writer that emits the v2 format on Close.
func NewV2Writer(w io.Writer, h Header) (*V2Writer, error) {
	return NewV2WriterOptions(w, h, V2WriterOptions{})
}

// NewV2WriterOptions is NewV2Writer with explicit options.
func NewV2WriterOptions(w io.Writer, h Header, opts V2WriterOptions) (*V2Writer, error) {
	if opts.BlockRecords <= 0 {
		opts.BlockRecords = DefaultV2BlockRecords
	}
	if opts.Compression != CompressionNone && opts.Compression != CompressionFlate {
		return nil, fmt.Errorf("lila: unknown compression %d", int(opts.Compression))
	}
	return &V2Writer{w: w, h: h, opts: opts, enc: v2enc{
		strings: make(map[string]uint64),
		stackID: make(map[stackKey]uint64),
	}}, nil
}

// WriteRecord implements Writer: it encodes r into the current block,
// framing the block once it holds BlockRecords records.
func (vw *V2Writer) WriteRecord(r *Record) error {
	if vw.closed {
		return fmt.Errorf("lila: write after Close")
	}
	if err := r.Validate(); err != nil {
		return err
	}
	pb := &vw.cur
	if pb.meta.records == 0 {
		*pb = pendingBlock{baseTime: vw.lastTime, start: len(vw.enc.buf)}
	}
	vw.lastTime = vw.enc.encodeRecord(r, vw.lastTime)
	pb.meta.records++
	switch r.Type {
	case RecThread, RecGCStart, RecGCEnd, RecEnd:
		pb.meta.flags |= v2FlagGlobal
	}
	switch r.Type {
	case RecCall, RecReturn, RecSample:
		pb.meta.threadBits |= threadBit(r.Thread)
	}
	if r.Type != RecThread { // threads carry no time stamp
		if !pb.timed || r.Time < pb.meta.minTime {
			pb.meta.minTime = r.Time
		}
		if !pb.timed || r.Time > pb.meta.maxTime {
			pb.meta.maxTime = r.Time
		}
		pb.timed = true
	}
	if pb.meta.records == vw.opts.BlockRecords {
		vw.endBlock()
	}
	return nil
}

// endBlock closes the current block.
func (vw *V2Writer) endBlock() {
	pb := vw.cur
	if !pb.timed {
		// A block of nothing but thread declarations: pin its span to
		// the running time base so index entries stay ordered.
		pb.meta.minTime, pb.meta.maxTime = pb.baseTime, pb.baseTime
	}
	pb.end = len(vw.enc.buf)
	vw.blocks = append(vw.blocks, pb)
	vw.cur = pendingBlock{}
}

// EncodeV2 encodes a complete record stream as a v2 trace and returns
// the file bytes. It is the programmatic twin of NewV2Writer for
// producers that already hold the whole stream in memory — the
// self-trace bridge (obs/selftrace) and tests — and validates each
// record the same way the streaming writer does.
func EncodeV2(h Header, recs []*Record) ([]byte, error) {
	var buf bytes.Buffer
	vw, err := NewV2Writer(&buf, h)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if err := vw.WriteRecord(r); err != nil {
			return nil, err
		}
	}
	if err := vw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// v2enc accumulates the encoded file and the intern state for the
// string and stack tables.
type v2enc struct {
	buf     []byte
	strings map[string]uint64
	strTab  []string
	stacks  stackTab // canonicalizes producer stacks before ref lookup
	stackID map[stackKey]uint64
	stakTab [][]trace.Frame
}

// stackKey identifies a frame slice by its first-frame pointer and
// length: the canonical slices of stackTab, and the producer slices
// already resolved to one of them.
type stackKey struct {
	first *trace.Frame
	n     int
}

func (e *v2enc) strRef(s string) uint64 {
	if s == "" {
		return 0
	}
	if id, ok := e.strings[s]; ok {
		return id
	}
	id := uint64(len(e.strTab) + 1)
	e.strings[s] = id
	e.strTab = append(e.strTab, s)
	return id
}

func (e *v2enc) stackRef(frames []trace.Frame) uint64 {
	if len(frames) == 0 {
		return 0
	}
	// A producer hands the same slice to many samples (a simulator's
	// idle stack, a reader's deduplicated stacks): resolve it once.
	key := stackKey{&frames[0], len(frames)}
	if id, ok := e.stackID[key]; ok {
		return id
	}
	// Canonicalize so identical stacks from different producer slices
	// share one table entry, keyed by the canonical slice, which
	// stackTab guarantees is unique per distinct stack.
	canon := e.stacks.canon(frames)
	ckey := stackKey{&canon[0], len(canon)}
	id, ok := e.stackID[ckey]
	if !ok {
		// Intern the frame symbols now so the table section below
		// reuses the string refs records already forced.
		for _, f := range canon {
			e.strRef(f.Class)
			e.strRef(f.Method)
		}
		id = uint64(len(e.stakTab) + 1)
		e.stackID[ckey] = id
		e.stakTab = append(e.stakTab, canon)
	}
	e.stackID[key] = id
	return id
}

func (e *v2enc) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *v2enc) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *v2enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// encodeRecord appends r's v2 payload encoding. lastTime is the
// running time base; the returned value carries it forward.
func (e *v2enc) encodeRecord(r *Record, lastTime trace.Time) trace.Time {
	e.buf = append(e.buf, byte(r.Type))
	dt := func() {
		e.varint(int64(r.Time - lastTime))
		lastTime = r.Time
	}
	switch r.Type {
	case RecThread:
		e.varint(int64(r.Thread))
		e.uvarint(e.strRef(r.Name))
		e.buf = append(e.buf, b2byte(r.Daemon))
	case RecCall:
		dt()
		e.varint(int64(r.Thread))
		e.buf = append(e.buf, byte(r.Kind))
		e.uvarint(e.strRef(r.Class))
		e.uvarint(e.strRef(r.Method))
	case RecReturn:
		dt()
		e.varint(int64(r.Thread))
	case RecGCStart:
		dt()
		e.buf = append(e.buf, b2byte(r.Major))
	case RecGCEnd:
		dt()
	case RecSample:
		dt()
		e.varint(int64(r.Thread))
		e.buf = append(e.buf, byte(r.State))
		e.uvarint(e.stackRef(r.Stack))
	case RecEnd:
		dt()
		e.uvarint(uint64(r.Count))
	}
	return lastTime
}

// blockMeta is the writer-side index entry.
type blockMeta struct {
	offset, length   uint64
	records          int
	minTime, maxTime trace.Time
	threadBits       uint64
	flags            uint64
	rawLen           uint64 // inflated payload length; set iff compressed
}

// Close frames the last block and writes the complete v2 file.
func (vw *V2Writer) Close() error {
	if vw.closed {
		return nil
	}
	vw.closed = true
	if vw.cur.meta.records > 0 {
		vw.endBlock()
	}
	enc := &vw.enc
	payloads, blocks := enc.buf, vw.blocks

	// Assemble the file: header and tables, then the block payloads
	// with their framing, then the index.
	enc.buf = make([]byte, 0, len(payloads)+len(payloads)/4+1024)
	enc.buf = append(enc.buf, v2Magic[:]...)
	enc.str(vw.h.App)
	enc.varint(int64(vw.h.SessionID))
	enc.varint(int64(vw.h.GUIThread))
	enc.varint(int64(vw.h.FilterThreshold))
	enc.varint(int64(vw.h.SamplePeriod))
	enc.varint(int64(vw.h.Start))

	enc.uvarint(uint64(len(enc.strTab)))
	for _, s := range enc.strTab {
		enc.str(s)
	}
	enc.uvarint(uint64(len(enc.stakTab)))
	for _, frames := range enc.stakTab {
		enc.uvarint(uint64(len(frames)))
		for _, f := range frames {
			enc.buf = append(enc.buf, b2byte(f.Native))
			enc.uvarint(enc.strings[f.Class]) // "" maps to absent key = 0
			enc.uvarint(enc.strings[f.Method])
		}
	}

	var fw *flate.Writer
	var cbuf bytes.Buffer
	for i := range blocks {
		pb := &blocks[i]
		payload := payloads[pb.start:pb.end]
		stored := payload
		if vw.opts.Compression == CompressionFlate {
			cbuf.Reset()
			if fw == nil {
				fw, _ = flate.NewWriter(&cbuf, flate.DefaultCompression)
			} else {
				fw.Reset(&cbuf)
			}
			if _, err := fw.Write(payload); err != nil {
				return fmt.Errorf("lila: compressing v2 block: %w", err)
			}
			if err := fw.Close(); err != nil {
				return fmt.Errorf("lila: compressing v2 block: %w", err)
			}
			// Keep whichever form is smaller; incompressible blocks stay
			// raw so no file ever grows from asking for compression.
			if cbuf.Len() < len(payload) {
				stored = cbuf.Bytes()
				pb.meta.flags |= v2FlagCompressed
				pb.meta.rawLen = uint64(len(payload))
			}
		}
		pb.meta.offset = uint64(len(enc.buf))
		enc.uvarint(uint64(len(stored)))
		if pb.meta.flags&v2FlagCompressed != 0 {
			enc.uvarint(0) // escape: compressed framing follows
			enc.uvarint(uint64(pb.meta.records))
			enc.uvarint(pb.meta.rawLen)
		} else {
			enc.uvarint(uint64(pb.meta.records))
		}
		enc.varint(int64(pb.baseTime))
		enc.buf = binary.LittleEndian.AppendUint32(enc.buf, crc32.Checksum(stored, v2CRC))
		enc.buf = append(enc.buf, stored...)
		pb.meta.length = uint64(len(enc.buf)) - pb.meta.offset
	}
	enc.uvarint(0) // sentinel: end of blocks

	indexOff := uint64(len(enc.buf))
	enc.uvarint(uint64(len(blocks)))
	for i := range blocks {
		m := &blocks[i].meta
		enc.uvarint(m.offset)
		enc.uvarint(m.length)
		enc.uvarint(uint64(m.records))
		enc.varint(int64(m.minTime))
		enc.varint(int64(m.maxTime))
		enc.uvarint(m.threadBits)
		enc.uvarint(m.flags)
		if m.flags&v2FlagCompressed != 0 {
			enc.uvarint(m.rawLen)
		}
	}
	index := enc.buf[indexOff:]
	enc.buf = binary.LittleEndian.AppendUint64(enc.buf, indexOff)
	enc.buf = binary.LittleEndian.AppendUint32(enc.buf, uint32(len(index)))
	enc.buf = binary.LittleEndian.AppendUint32(enc.buf, crc32.Checksum(index, v2CRC))
	enc.buf = append(enc.buf, v2TrailerMagic[:]...)

	if _, err := vw.w.Write(enc.buf); err != nil {
		return fmt.Errorf("lila: writing v2 trace: %w", err)
	}
	vw.enc, vw.blocks = v2enc{}, nil
	return nil
}
