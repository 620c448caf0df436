package lila

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"lagalyzer/internal/obs"
	"lagalyzer/internal/trace"
)

// v2 decoding. Three entry points share the machinery below:
//
//   - OpenV2File maps a trace file into memory (mmap on unix, a plain
//     read elsewhere) and decodes its blocks independently, in
//     parallel if asked — the LoadTraceDir fast path.
//   - ParseV2 does the same over an in-memory byte slice.
//   - NewV2Reader adapts a ParseV2 file to the streaming Reader
//     contract for sniffed io.Reader inputs (pipes, network, the
//     convert pass); it buffers the input, bounded by MaxTraceBytes,
//     and pulls the same block list — the footer index, or the
//     header scan when the index is damaged — through the same
//     cursor (v2cursor), so a stream read and a file read of the same
//     bytes agree, salvage accounting included.
//
// The decoders keep no state that outlives a read: string-table
// entries are copied out of the data once per file, and every table
// dies with its V2File.

// Decode-path metrics: how many compressed blocks readers inflate, and
// the worker count of the most recent intra-file parallel decode.
var (
	mBlocksInflated = obs.NewCounter("lila_blocks_inflated_total", "compressed v2 blocks inflated by readers")
	mDecodeWorkers  = obs.NewGauge("lila_block_decode_workers", "workers of the most recent parallel v2 block decode")
)

// v2cur is a bounds-checked cursor over encoded bytes.
type v2cur struct {
	data []byte
	off  int
}

func (c *v2cur) remaining() int { return len(c.data) - c.off }

func (c *v2cur) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated uvarint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *v2cur) varint() (int64, error) {
	v, n := binary.Varint(c.data[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated varint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *v2cur) byte() (byte, error) {
	if c.off >= len(c.data) {
		return 0, &truncatedByte{c.off}
	}
	b := c.data[c.off]
	c.off++
	return b, nil
}

// truncatedByte is byte's error. A type of its own, not fmt.Errorf,
// keeps byte cheap enough to inline into the per-record decode.
type truncatedByte struct{ off int }

func (e *truncatedByte) Error() string { return fmt.Sprintf("truncated byte at offset %d", e.off) }

func (c *v2cur) bytes(n int) ([]byte, error) {
	if n < 0 || c.remaining() < n {
		return nil, fmt.Errorf("truncated %d-byte field at offset %d", n, c.off)
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b, nil
}

// v2data is a parsed v2 prefix: header, tables, and the position where
// the block sequence starts.
type v2data struct {
	data        []byte
	h           Header
	strings     []string
	stacks      [][]trace.Frame
	blocksStart int
	limits      Limits
}

func (d *v2data) str(ref uint64) (string, error) {
	if ref > uint64(len(d.strings)) {
		return "", fmt.Errorf("string ref %d beyond table size %d", ref, len(d.strings))
	}
	return d.ref(uint32(ref)), nil
}

// ref resolves a string ref already checked against the table.
func (d *v2data) ref(ref uint32) string {
	if ref == 0 {
		return ""
	}
	return d.strings[ref-1]
}

// parseV2Prefix parses magic, header, string table, and stack table.
// When the header parses but a table does not, it also returns the
// header-only data, whose blocks start right after the header, so a
// salvage read can still open the session and itemize the loss.
func parseV2Prefix(data []byte, limits Limits) (*v2data, error) {
	limits = limits.WithDefaults()
	c := &v2cur{data: data}
	magic, err := c.bytes(len(v2Magic))
	if err != nil {
		return nil, fmt.Errorf("lila: reading v2 magic: %w", err)
	}
	if string(magic[:4]) != "LILA" {
		return nil, fmt.Errorf("lila: bad magic %q", magic[:4])
	}
	if magic[4] != V2FormatVersion {
		return nil, fmt.Errorf("%w %d (this is the v2 reader)", ErrUnsupportedVersion, magic[4])
	}
	d := &v2data{data: data, limits: limits}

	readString := func() (string, error) {
		n, err := c.uvarint()
		if err != nil {
			return "", err
		}
		if n > uint64(limits.MaxStringLen) {
			return "", fmt.Errorf("implausible string length %d", n)
		}
		b, err := c.bytes(int(n))
		if err != nil {
			return "", err
		}
		// A copy, not a view into data: a mapped file is unmapped on
		// Close, and the session built from it outlives that.
		return string(b), nil
	}

	if d.h.App, err = readString(); err != nil {
		return nil, fmt.Errorf("lila: v2 header app: %w", err)
	}
	var sid, gui, filt, period, start int64
	for _, f := range []*int64{&sid, &gui, &filt, &period, &start} {
		if *f, err = c.varint(); err != nil {
			return nil, fmt.Errorf("lila: v2 header: %w", err)
		}
	}
	d.h.SessionID = int(sid)
	d.h.GUIThread = trace.ThreadID(gui)
	d.h.FilterThreshold = trace.Dur(filt)
	d.h.SamplePeriod = trace.Dur(period)
	d.h.Start = trace.Time(start)

	d.blocksStart = c.off
	if err := d.parseTables(c, readString); err != nil {
		d.strings, d.stacks = nil, nil
		return d, err
	}
	d.blocksStart = c.off
	return d, nil
}

// parseTables parses the string and stack tables at c.
func (d *v2data) parseTables(c *v2cur, readString func() (string, error)) error {
	limits := d.limits
	nstr, err := c.uvarint()
	if err != nil {
		return fmt.Errorf("lila: v2 string table: %w", err)
	}
	// Records hold refs as uint32s, which bounds a table however
	// high the limit is set.
	if nstr > uint64(limits.MaxStringTable) || nstr > math.MaxUint32 {
		return limitErrf("lila: v2 string table exceeds limit %d", limits.MaxStringTable)
	}
	d.strings = make([]string, nstr)
	for i := range d.strings {
		if d.strings[i], err = readString(); err != nil {
			return fmt.Errorf("lila: v2 string table entry %d: %w", i, err)
		}
	}

	nstk, err := c.uvarint()
	if err != nil {
		return fmt.Errorf("lila: v2 stack table: %w", err)
	}
	if nstk > uint64(limits.MaxStringTable) || nstk > math.MaxUint32 {
		return limitErrf("lila: v2 stack table exceeds limit %d", limits.MaxStringTable)
	}
	d.stacks = make([][]trace.Frame, nstk)
	var slab []trace.Frame // frames for all stacks, allocated in chunks
	for i := range d.stacks {
		nf, err := c.uvarint()
		if err != nil {
			return fmt.Errorf("lila: v2 stack table entry %d: %w", i, err)
		}
		if nf == 0 || nf > uint64(limits.MaxStackDepth) {
			return fmt.Errorf("lila: v2 stack table entry %d: implausible depth %d", i, nf)
		}
		if uint64(c.remaining()) < 3*nf { // each frame is at least 3 bytes
			return fmt.Errorf("lila: v2 stack table entry %d: truncated", i)
		}
		if len(slab) < int(nf) {
			slab = make([]trace.Frame, max(int(nf), 1024))
		}
		frames := slab[:nf:nf]
		slab = slab[nf:]
		for j := range frames {
			fl, err := c.byte()
			if err != nil {
				return fmt.Errorf("lila: v2 stack table entry %d: %w", i, err)
			}
			frames[j].Native = fl&1 != 0
			cr, err := c.uvarint()
			if err != nil {
				return fmt.Errorf("lila: v2 stack table entry %d: %w", i, err)
			}
			mr, err := c.uvarint()
			if err != nil {
				return fmt.Errorf("lila: v2 stack table entry %d: %w", i, err)
			}
			if frames[j].Class, err = d.str(cr); err != nil {
				return fmt.Errorf("lila: v2 stack table entry %d: %w", i, err)
			}
			if frames[j].Method, err = d.str(mr); err != nil {
				return fmt.Errorf("lila: v2 stack table entry %d: %w", i, err)
			}
		}
		d.stacks[i] = frames
	}
	return nil
}

// V2BlockInfo describes one block. Entries come from the footer index,
// or — when the index is damaged — from a sequential scan of the
// self-framing block headers, in which case the time span is unbounded.
type V2BlockInfo struct {
	// Offset and Length frame the whole block (header + payload) in
	// the file.
	Offset, Length int64
	// Records is the block's record count.
	Records int
	// MinTime and MaxTime span the block's timed records.
	MinTime, MaxTime trace.Time
	// RawLen is the inflated payload length of a compressed block;
	// 0 for blocks stored raw.
	RawLen int64

	flags uint64
}

// Compressed reports whether the block's payload is stored as a
// DEFLATE stream.
func (b *V2BlockInfo) Compressed() bool { return b.flags&v2FlagCompressed != 0 }

// parseV2Index recovers the block index from the footer trailer,
// verifying its checksum and every entry's framing.
func parseV2Index(d *v2data) ([]V2BlockInfo, error) {
	data := d.data
	if len(data) < v2TrailerLen {
		return nil, fmt.Errorf("lila: v2 trace too short for a trailer")
	}
	tr := data[len(data)-v2TrailerLen:]
	if string(tr[16:24]) != string(v2TrailerMagic[:]) {
		return nil, fmt.Errorf("lila: v2 trailer magic missing")
	}
	indexOff := binary.LittleEndian.Uint64(tr[0:8])
	indexLen := binary.LittleEndian.Uint32(tr[8:12])
	indexCRC := binary.LittleEndian.Uint32(tr[12:16])
	end := uint64(len(data) - v2TrailerLen)
	if indexOff > end || uint64(indexLen) > end-indexOff {
		return nil, fmt.Errorf("lila: v2 index frame out of bounds")
	}
	index := data[indexOff : indexOff+uint64(indexLen)]
	if crc32.Checksum(index, v2CRC) != indexCRC {
		return nil, fmt.Errorf("lila: v2 index checksum mismatch")
	}
	c := &v2cur{data: index}
	n, err := c.uvarint()
	if err != nil {
		return nil, fmt.Errorf("lila: v2 index: %w", err)
	}
	if n > uint64(len(index)) { // each entry is at least 7 bytes
		return nil, fmt.Errorf("lila: v2 index: implausible block count %d", n)
	}
	blocks := make([]V2BlockInfo, n)
	for i := range blocks {
		b := &blocks[i]
		var off, length, records uint64
		var minT, maxT int64
		err := error(nil)
		for _, step := range []func() error{
			func() (e error) { off, e = c.uvarint(); return },
			func() (e error) { length, e = c.uvarint(); return },
			func() (e error) { records, e = c.uvarint(); return },
			func() (e error) { minT, e = c.varint(); return },
			func() (e error) { maxT, e = c.varint(); return },
			func() (e error) { _, e = c.uvarint(); return }, // thread bitmap, unused
			func() (e error) { b.flags, e = c.uvarint(); return },
		} {
			if err = step(); err != nil {
				break
			}
		}
		if err != nil {
			return nil, fmt.Errorf("lila: v2 index entry %d: %w", i, err)
		}
		b.Offset, b.Length, b.Records = int64(off), int64(length), int(records)
		b.MinTime, b.MaxTime = trace.Time(minT), trace.Time(maxT)
		// A record takes at least one payload byte, so a raw block's
		// count is bounded by its frame; the MaxRecords budget is the
		// reads' to charge, block by block, as an ErrLimit.
		if b.Offset < int64(d.blocksStart) || b.Length <= 0 ||
			uint64(b.Offset)+uint64(b.Length) > indexOff ||
			b.Records < 0 || (b.flags&v2FlagCompressed == 0 && int64(b.Records) > b.Length) {
			return nil, fmt.Errorf("lila: v2 index entry %d: frame out of bounds", i)
		}
		if b.flags&v2FlagCompressed != 0 {
			// Compressed entries carry the inflated payload length after
			// their flags; an entry that lacks it (or declares an absurd
			// one) is index damage like any other.
			rl, err := c.uvarint()
			if err != nil {
				return nil, fmt.Errorf("lila: v2 index entry %d: %w", i, err)
			}
			if rl == 0 || rl < records || rl > maxInflatedLen(uint64(b.Length), d.limits) {
				return nil, fmt.Errorf("lila: v2 index entry %d: implausible inflated length %d", i, rl)
			}
			b.RawLen = int64(rl)
		}
	}
	return blocks, nil
}

// maxInflatedLen bounds a compressed block's declared inflated size
// before any buffer is allocated for it: DEFLATE expands at most
// ~1032:1, and nothing can exceed the whole-trace byte budget.
func maxInflatedLen(storedLen uint64, limits Limits) uint64 {
	bound := storedLen*1032 + 64
	if m := uint64(limits.MaxTraceBytes); bound > m {
		bound = m
	}
	return bound
}

// scanV2Blocks re-frames the block sequence from the self-describing
// block headers — the salvage fallback when the footer index is
// destroyed. A scanned block's time span is unbounded. A framing error
// mid-scan returns the blocks recovered so far, the torn remainder,
// and the error.
func scanV2Blocks(d *v2data) ([]V2BlockInfo, v2Torn, error) {
	c := &v2cur{data: d.data, off: d.blocksStart}
	var blocks []V2BlockInfo
	total := 0
	for {
		start := c.off
		torn := v2Torn{bytes: int64(len(d.data) - start)}
		plen, count, rawLen, flags, err := readV2Frame(c)
		if err != nil {
			return blocks, torn, fmt.Errorf("lila: v2 block %d framing: %w", len(blocks), err)
		}
		if plen == 0 {
			return blocks, v2Torn{}, nil // sentinel: index + trailer follow
		}
		implausible := count == 0
		if flags&v2FlagCompressed != 0 {
			implausible = implausible || rawLen == 0 || count > rawLen ||
				rawLen > maxInflatedLen(plen, d.limits)
		} else {
			implausible = implausible || count > plen
		}
		if implausible || plen > uint64(c.remaining()) {
			// A payload running past the data is a torn tail: its
			// header still says how many records went with it.
			if !implausible && total+int(count) <= d.limits.MaxRecords {
				torn.records = int(count)
			}
			return blocks, torn, fmt.Errorf("lila: v2 block %d: implausible frame (payload %d, records %d)",
				len(blocks), plen, count)
		}
		total += int(count)
		if total > d.limits.MaxRecords {
			return blocks, torn, limitErrf("lila: record limit %d exceeded", d.limits.MaxRecords)
		}
		c.off += int(plen)
		blocks = append(blocks, V2BlockInfo{
			Offset:  int64(start),
			Length:  int64(c.off - start),
			Records: int(count),
			MinTime: math.MinInt64,
			MaxTime: math.MaxInt64,
			RawLen:  int64(rawLen),
			flags:   flags,
		})
	}
}

// v2Torn is what a block scan that stopped early could not read: the
// bytes from the unusable frame to the end of the data, and the
// records that frame declares when its header decoded to a plausible
// count (0 otherwise). Salvage readers itemize it.
type v2Torn struct {
	records int
	bytes   int64
}

// tableLoss itemizes a trace whose header parsed but whose tables did
// not: every byte after the header is lost, and so is every record the
// footer index declares, if the index survived.
func (d *v2data) tableLoss() v2Torn {
	lost := v2Torn{bytes: int64(len(d.data) - d.blocksStart)}
	if blocks, err := parseV2Index(d); err == nil {
		for _, b := range blocks {
			lost.records += b.Records
		}
	}
	return lost
}

// readV2Frame reads one block header for scanV2Blocks, leaving c at
// the payload; a zero plen is the sentinel, read alone.
func readV2Frame(c *v2cur) (plen, count, rawLen, flags uint64, err error) {
	if plen, err = c.uvarint(); err != nil || plen == 0 {
		return
	}
	if count, err = c.uvarint(); err != nil {
		return
	}
	if count == 0 {
		// Raw blocks never have zero records: this is the escape
		// into the compressed framing (see the format comment in
		// v2.go) — the true count and inflated length follow.
		flags = v2FlagCompressed
		if count, err = c.uvarint(); err != nil {
			return
		}
		if rawLen, err = c.uvarint(); err != nil {
			return
		}
	}
	if _, err = c.varint(); err != nil { // baseTime
		return
	}
	_, err = c.bytes(4) // crc
	return
}

// v2scratch bundles the per-goroutine decode state: the inflater and
// the inflate buffer for compressed blocks, and the compact records of
// the last block decoded into it (or its err). Not safe for concurrent
// use; every decoding goroutine owns one.
type v2scratch struct {
	fl       *inflater // made on the first compressed block
	inflated []byte    // reusable inflated-payload buffer
	recs     []v2rec   // the last block's records, overwritten by the next
	err      error
}

// inflate decompresses stored into the scratch buffer, insisting on
// exactly rawLen bytes. The returned slice is valid until the next
// call; record decode never retains payload bytes (strings and stacks
// live in the up-front tables), so reuse is safe.
func (s *v2scratch) inflate(stored []byte, rawLen int) ([]byte, error) {
	if s.fl == nil {
		s.fl = new(inflater)
	}
	if cap(s.inflated) < rawLen {
		s.inflated = make([]byte, rawLen)
	}
	buf := s.inflated[:rawLen]
	switch err := s.fl.inflate(buf, stored); {
	case err == errInflateExceeds:
		return nil, fmt.Errorf("inflated payload exceeds declared length %d", rawLen)
	case err != nil:
		return nil, fmt.Errorf("inflating block payload: %w", err)
	}
	return buf, nil
}

// v2rec is one decoded v2 record in compact form: 24 bytes holding no
// pointer, so a block's records fill a slab the GC does not scan. Its
// refs were bounds-checked against the tables when it was decoded, and
// fill turns it into a Record.
type v2rec struct {
	time trace.Time // all but RecThread
	// a and b are RecCall's class and method refs, RecThread's name
	// ref and RecSample's stack ref, or RecEnd's count, low half first.
	a, b   uint32
	thread trace.ThreadID // RecThread, RecCall, RecReturn, RecSample
	typ    RecType
	flag   uint8 // RecCall kind, RecSample state, RecGCStart major, RecThread daemon byte
}

// decodeV2Block verifies and decodes block b into sc.recs. The block
// header is re-read from b's frame (it carries the base time and, for
// compressed blocks, the inflated length); the checksum over the
// stored bytes is verified before any inflation or record decode. A
// block decodes whole or not at all: on error sc.recs holds nothing
// the caller may read.
func (d *v2data) decodeV2Block(b *V2BlockInfo, sc *v2scratch) error {
	c := &v2cur{data: d.data[:b.Offset+b.Length], off: int(b.Offset)}
	plen, err := c.uvarint()
	if err != nil {
		return err
	}
	count, err := c.uvarint()
	if err != nil {
		return err
	}
	compressed := false
	rawLen := int(plen)
	if count == 0 { // escape into the compressed framing
		compressed = true
		if count, err = c.uvarint(); err != nil {
			return err
		}
		rl, err := c.uvarint()
		if err != nil {
			return err
		}
		if rl == 0 || rl > maxInflatedLen(plen, d.limits) {
			return fmt.Errorf("implausible inflated length %d for %d stored bytes", rl, plen)
		}
		rawLen = int(rl)
	}
	base, err := c.varint()
	if err != nil {
		return err
	}
	crcb, err := c.bytes(4)
	if err != nil {
		return err
	}
	stored, err := c.bytes(int(plen))
	if err != nil {
		return err
	}
	if c.remaining() != 0 || int(count) != b.Records {
		return fmt.Errorf("block header disagrees with index (payload %d, records %d vs %d)",
			plen, count, b.Records)
	}
	if crc32.Checksum(stored, v2CRC) != binary.LittleEndian.Uint32(crcb) {
		return fmt.Errorf("block checksum mismatch (%d records lost)", count)
	}
	payload := stored
	if compressed {
		if payload, err = sc.inflate(stored, rawLen); err != nil {
			return fmt.Errorf("%w (%d records lost)", err, count)
		}
		mBlocksInflated.Inc()
	}

	pc := &v2cur{data: payload}
	lastTime := trace.Time(base)
	recs := slices.Grow(sc.recs[:0], min(int(count), len(payload))) // a record takes at least one byte
	for i := 0; i < int(count); i++ {
		recs = append(recs, v2rec{})
		if err := d.decodeRecord(pc, &lastTime, &recs[i]); err != nil {
			return fmt.Errorf("record %d of block: %w", i, err)
		}
	}
	sc.recs = recs
	if pc.remaining() != 0 {
		return fmt.Errorf("%d trailing bytes after %d records", pc.remaining(), count)
	}
	return nil
}

// decodeRecord decodes one record from the payload cursor into the
// zero compact record r, checking its refs against the tables and the
// record against the rules Record.Validate states.
func (d *v2data) decodeRecord(c *v2cur, lastTime *trace.Time, r *v2rec) error {
	tb, err := c.byte()
	if err != nil {
		return err
	}
	if int(tb) >= numRecTypes {
		return fmt.Errorf("unknown record type %d", tb)
	}
	r.typ = RecType(tb)
	if r.typ != RecThread {
		dt, err := c.varint()
		if err != nil {
			return err
		}
		*lastTime += trace.Time(dt)
		r.time = *lastTime
	}
	switch r.typ {
	case RecThread, RecCall, RecReturn, RecSample:
		tid, err := c.varint()
		if err != nil {
			return err
		}
		r.thread = trace.ThreadID(tid)
	}
	var name string
	switch r.typ {
	case RecThread:
		ref, err := c.uvarint()
		if err != nil {
			return err
		}
		if name, err = d.str(ref); err != nil {
			return err
		}
		r.a = uint32(ref)
		if r.flag, err = c.byte(); err != nil {
			return err
		}
	case RecCall:
		if r.flag, err = c.byte(); err != nil {
			return err
		}
		cr, err := c.uvarint()
		if err != nil {
			return err
		}
		mr, err := c.uvarint()
		if err != nil {
			return err
		}
		if _, err := d.str(cr); err != nil {
			return err
		}
		if _, err := d.str(mr); err != nil {
			return err
		}
		r.a, r.b = uint32(cr), uint32(mr)
	case RecGCStart:
		if r.flag, err = c.byte(); err != nil {
			return err
		}
	case RecSample:
		if r.flag, err = c.byte(); err != nil {
			return err
		}
		ref, err := c.uvarint()
		if err != nil {
			return err
		}
		if ref > uint64(len(d.stacks)) {
			return fmt.Errorf("stack ref %d beyond table size %d", ref, len(d.stacks))
		}
		r.a = uint32(ref)
	case RecEnd:
		n, err := c.uvarint()
		if err != nil {
			return err
		}
		r.a, r.b = uint32(n), uint32(n>>32)
	}
	return validate(r.typ, r.thread, name, trace.Kind(r.flag), trace.ThreadState(r.flag))
}

// fill sets rec to the record r encodes, resolving its refs in d's
// tables. Only the fields of rec's current type can be set (a zero
// Record is a thread without a name), so fill clears those when the
// type changes, a pointer field only when it is set, and writes the
// fields r's type uses: Each refills one Record for every record of a
// read, and a whole-struct store would zero every pointer word
// through the write barrier.
func (d *v2data) fill(rec *Record, r *v2rec) {
	if rec.Type != r.typ {
		switch rec.Type {
		case RecThread:
			if rec.Name != "" {
				rec.Name = ""
			}
			rec.Daemon = false
		case RecCall:
			rec.Kind = 0
			if rec.Class != "" {
				rec.Class = ""
			}
			if rec.Method != "" {
				rec.Method = ""
			}
		case RecGCStart:
			rec.Major = false
		case RecSample:
			rec.State = 0
			if rec.Stack != nil {
				rec.Stack = nil
			}
		case RecEnd:
			rec.Count = 0
		}
		rec.Type = r.typ
	}
	rec.Time, rec.Thread = r.time, r.thread
	switch r.typ {
	case RecThread:
		rec.Name = d.strings[r.a-1] // Validate refuses a thread without a name
		rec.Daemon = r.flag == 1
	case RecCall:
		rec.Kind = trace.Kind(r.flag)
		rec.Class, rec.Method = d.ref(r.a), d.ref(r.b)
	case RecGCStart:
		rec.Major = r.flag == 1
	case RecSample:
		rec.State = trace.ThreadState(r.flag)
		if r.a > 0 {
			rec.Stack = d.stacks[r.a-1]
		} else if rec.Stack != nil {
			rec.Stack = nil
		}
	case RecEnd:
		rec.Count = int(uint64(r.a) | uint64(r.b)<<32)
	}
}

// V2File is a v2 trace opened for random access: the footer index is
// parsed once, and blocks decode independently, so workers can decode
// them in parallel ahead of the in-order cursor.
type V2File struct {
	d      *v2data
	blocks []V2BlockInfo
	// indexErr is non-nil when the footer index was damaged and blocks
	// were re-framed by sequential scan, or when the tables were and
	// nothing decodes; strict decodes refuse to proceed, salvage
	// decodes carry on with the blocks recovered and itemize torn,
	// what could not be.
	indexErr error
	torn     v2Torn
	unmap    func() error
}

// ParseV2 opens an in-memory v2 trace. The returned file borrows data;
// it must stay alive and unmodified for the file's lifetime.
func ParseV2(data []byte, limits Limits) (*V2File, error) {
	d, err := parseV2Prefix(data, limits)
	if err != nil {
		if d == nil || errors.Is(err, ErrLimit) {
			return nil, err
		}
		// Damaged tables: no block decodes, which strict reads report
		// and salvage reads itemize.
		return &V2File{d: d, indexErr: err, torn: d.tableLoss()}, nil
	}
	v := &V2File{d: d}
	blocks, ierr := parseV2Index(d)
	if ierr == nil {
		v.blocks = blocks
		return v, nil
	}
	// Damaged or missing index: re-frame from the block headers. The
	// scan error (if any) marks where framing broke; everything before
	// it is usable under salvage.
	v.indexErr = ierr
	blocks, torn, scanErr := scanV2Blocks(d)
	v.blocks, v.torn = blocks, torn
	if scanErr != nil {
		v.indexErr = fmt.Errorf("%v; block scan: %w", ierr, scanErr)
	}
	return v, nil
}

// OpenV2File maps f into memory (mmap where available, one read
// elsewhere) and parses it as a v2 trace. Closing the V2File releases
// the mapping; the *os.File itself stays the caller's to close.
func OpenV2File(f *os.File, limits Limits) (*V2File, error) {
	data, unmap, err := mapFile(f)
	if err != nil {
		return nil, fmt.Errorf("lila: mapping v2 trace: %w", err)
	}
	v, err := ParseV2(data, limits)
	if err != nil {
		unmap()
		return nil, err
	}
	v.unmap = unmap
	return v, nil
}

// Header returns the session header.
func (v *V2File) Header() Header { return v.d.h }

// Blocks exposes the block index (read-only).
func (v *V2File) Blocks() []V2BlockInfo { return v.blocks }

// NumRecords returns the record count the block index declares.
func (v *V2File) NumRecords() int {
	n := 0
	for i := range v.blocks {
		n += v.blocks[i].Records
	}
	return n
}

// Size returns the trace's encoded size in bytes.
func (v *V2File) Size() int64 { return int64(len(v.d.data)) }

// Close releases the file's memory mapping, if any.
func (v *V2File) Close() error {
	if v.unmap != nil {
		u := v.unmap
		v.unmap = nil
		return u()
	}
	return nil
}

const v2ReadAheadPerWorker = 2 // decoded blocks a worker may hold unfed

// Each decodes every block and calls fn with every record, in stream
// order. fn gets one Record that Each refills for every record, so a
// record is valid only during its fn call; an error from fn
// stops the decode and is returned. With salvage false a damaged index
// or block is an error; with salvage true a bad block is dropped whole
// and itemized in the returned SalvageReport (non-nil exactly then, its
// metrics flushed once per call), as are a torn tail and a missing end
// record. Up to jobs workers (≤0 takes GOMAXPROCS, 1 decodes inline)
// decode blocks ahead of the cursor, which walks the blocks in index
// order and feeds fn, so records, salvage accounting, and errors are
// identical at every worker count: the first failure in stream order
// wins.
func (v *V2File) Each(salvage bool, jobs int, fn func(*Record) error) (*SalvageReport, error) {
	c, err := v.cursor(newReport(salvage))
	if err != nil {
		return nil, err
	}
	defer c.finish(nil)
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	c.pipe.start(v, jobs)
	defer c.pipe.stop()
	for {
		block, err := c.next()
		if block == nil || err != nil {
			return c.report, err
		}
		for i := range block {
			v.d.fill(&c.rec, &block[i])
			if err := fn(&c.rec); err != nil {
				return c.report, err
			}
		}
	}
}

// Records reads every block inline and fills its records into an
// arena, so they stay valid after the call. filter (nil = everything)
// then keeps the records its record-level rule selects.
func (v *V2File) Records(filter *RecordFilter, salvage bool) ([]*Record, *SalvageReport, error) {
	c, err := v.cursor(newReport(salvage))
	if err != nil {
		return nil, nil, err
	}
	var arena recArena
	recs := make([]*Record, 0, min(v.NumRecords(), v.d.limits.MaxRecords))
	for {
		block, err := c.next()
		if err != nil {
			return nil, c.report, err
		}
		if block == nil {
			break
		}
		for i := range block {
			rec := arena.new()
			v.d.fill(rec, &block[i])
			recs = append(recs, rec)
		}
	}
	if filter.All() {
		return recs, c.report, nil
	}
	return filter.apply(recs), c.report, nil
}

// v2cursor is the one block loop of a V2File read: Each, Records and
// the V2Reader all pull blocks through next, so each salvage rule is
// stated once, here. A nil report is a strict read.
type v2cursor struct {
	v      *V2File
	report *SalvageReport
	own    v2scratch  // inline decodes
	pipe   v2pipe     // read-ahead; the zero pipe decodes every block inline
	held   *v2scratch // the read-ahead scratch behind the last block
	rec    Record     // the one Record Each hands its fn
	block  int        // next block to read
	total  int        // records the blocks so far declare
	done   bool
}

// cursor opens a read of v: a strict one fails on a damaged index or
// tables, a salvage one itemizes what they cost.
func (v *V2File) cursor(report *SalvageReport) (*v2cursor, error) {
	if v.indexErr != nil {
		if report == nil {
			return nil, v.indexErr
		}
		report.note(v.indexErr)
		report.RecordsDropped += v.torn.records
		report.BytesSkipped += v.torn.bytes
	}
	return &v2cursor{v: v, report: report}, nil
}

// next returns the compact records of the next block that survives,
// cut at the end record; nil means the read is over. They are valid
// until the following call. It charges the record limit, drops a bad
// block under salvage (a strict read fails on it), and counts what it
// keeps; past the end record, or out of blocks, it closes the read.
func (c *v2cursor) next() ([]v2rec, error) {
	for !c.done {
		c.pipe.release(c.held)
		c.held = nil
		if c.block == len(c.v.blocks) {
			return nil, c.finish(endOfBlocks(c.report))
		}
		i := c.block
		c.block++
		b := &c.v.blocks[i]
		if c.total += b.Records; c.total > c.v.d.limits.MaxRecords {
			return nil, c.finish(limitErrf("lila: record limit %d exceeded", c.v.d.limits.MaxRecords))
		}
		block, err := c.decode(i)
		if err != nil {
			if err := c.drop(i, err); err != nil {
				return nil, c.finish(err)
			}
			continue
		}
		if c.report != nil {
			c.report.RecordsKept += len(block)
		}
		// Anything a malformed block encodes after RecEnd is discarded.
		for j := range block {
			if block[j].typ == RecEnd {
				block = block[:j+1]
				c.finish(nil)
				break
			}
		}
		if len(block) > 0 {
			return block, nil
		}
	}
	return nil, nil
}

// decode returns block i's compact records: taken from the
// read-ahead, or decoded inline.
func (c *v2cursor) decode(i int) ([]v2rec, error) {
	sc := c.pipe.take(i)
	if sc != nil {
		c.held = sc
	} else {
		sc = &c.own
		sc.err = c.v.d.decodeV2Block(&c.v.blocks[i], sc)
	}
	return sc.recs, sc.err
}

// finish ends the read, flushing the salvage metrics once, and
// passes err through.
func (c *v2cursor) finish(err error) error {
	if !c.done && c.report != nil {
		c.report.flushMetrics()
	}
	c.done = true
	return err
}

// drop handles block i failing to decode: a strict read fails with
// the error, a salvage read itemizes the block and carries on.
func (c *v2cursor) drop(i int, err error) error {
	err = fmt.Errorf("lila: v2 block %d: %w", i, err)
	if c.report == nil {
		return err
	}
	c.report.note(err)
	c.report.RecordsDropped += c.v.blocks[i].Records
	c.report.BytesSkipped += c.v.blocks[i].Length
	if i < len(c.v.blocks)-1 {
		c.report.Resyncs++
	}
	return nil
}

// endOfBlocks closes a read that ran out of blocks before the end
// record: a strict read fails and a salvage read marks the tail
// truncated.
func endOfBlocks(report *SalvageReport) error {
	if report == nil {
		return fmt.Errorf("lila: truncated trace: no end record")
	}
	report.TruncatedTail = true
	if report.FirstError == "" {
		report.note(errTruncated)
	}
	return nil
}

// v2pipe reads blocks ahead of Each's cursor: workers decode blocks
// 0..ahead-1 in order, each into a scratch from a pool of
// v2ReadAheadPerWorker×workers that the cursor hands back once the
// block is fed. Block k arrives on done[k%len(done)]; the ring cannot
// overflow, since every block the cursor has not received holds a pool
// scratch. The zero pipe reads nothing ahead.
type v2pipe struct {
	ahead int // blocks read ahead: those before the record limit trips
	done  []chan *v2scratch
	free  chan *v2scratch // closed by stop
	wg    sync.WaitGroup
}

// start reads v's blocks ahead with up to jobs workers, if more than
// one is worth starting; the caller must stop the pipe.
func (p *v2pipe) start(v *V2File, jobs int) {
	ahead := 0
	for total := 0; ahead < len(v.blocks); ahead++ {
		if total += v.blocks[ahead].Records; total > v.d.limits.MaxRecords {
			break // the cursor stops with a limit error at this block
		}
	}
	workers := min(jobs, ahead)
	if workers <= 1 {
		return
	}
	mDecodeWorkers.Set(int64(workers))
	p.ahead = ahead
	p.done = make([]chan *v2scratch, v2ReadAheadPerWorker*workers)
	p.free = make(chan *v2scratch, len(p.done))
	for k := range p.done {
		p.done[k] = make(chan *v2scratch, 1)
		p.free <- &v2scratch{}
	}
	var claimed atomic.Int64
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for sc := range p.free {
				k := int(claimed.Add(1)) - 1
				if k >= ahead {
					return
				}
				sc.err = v.d.decodeV2Block(&v.blocks[k], sc)
				p.done[k%len(p.done)] <- sc
			}
		}()
	}
}

// take waits for block i if it was read ahead and returns its
// scratch, decoded; nil means the cursor decodes it inline. The cursor
// takes blocks in order, and releases every scratch it takes.
func (p *v2pipe) take(i int) *v2scratch {
	if i >= p.ahead {
		return nil
	}
	return <-p.done[i%len(p.done)]
}

func (p *v2pipe) release(sc *v2scratch) {
	if sc != nil {
		p.free <- sc
	}
}

// stop makes the workers exit and waits until they have; they may
// first decode the blocks the pool still has scratches for.
func (p *v2pipe) stop() {
	if p.free != nil {
		close(p.free)
		p.wg.Wait()
	}
}

// IsV2File sniffs f for the v2 magic without moving its offset.
func IsV2File(f *os.File) bool {
	var magic [len(v2Magic)]byte
	_, err := f.ReadAt(magic[:], 0)
	return err == nil && magic == v2Magic
}

// readAllLimited buffers r, refusing inputs beyond max bytes. A read
// error comes with the bytes that arrived before it.
func readAllLimited(r io.Reader, max int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, max+1))
	if int64(len(data)) > max {
		return nil, fmt.Errorf("lila: trace exceeds %d-byte limit", max)
	}
	return data, err
}

// V2Reader adapts a v2 trace to the streaming Reader contract for
// sniffed io.Reader inputs. The input is buffered (bounded by
// Limits.MaxTraceBytes) because the tables that records reference sit
// between the header and the blocks, and opened with ParseV2; Read then
// pulls that file's blocks through the cursor Each uses, so the records
// and the SalvageReport equal a file read's. A salvage read cut off by
// a transport error keeps the blocks that arrived before it.
type V2Reader struct {
	c     *v2cursor
	arena recArena // the Records Read returns
	queue []v2rec  // the rest of the current block
}

// NewV2Reader buffers r and returns a streaming reader for its record
// stream. The first bytes of r must be the v2 magic (callers reach
// here via format sniffing). A strict reader fails here on a damaged
// footer index or tables, as a strict file read does.
func NewV2Reader(r io.Reader, o ReaderOptions) (*V2Reader, error) {
	limits := o.Limits.WithDefaults()
	data, readErr := readAllLimited(r, limits.MaxTraceBytes)
	if readErr != nil {
		readErr = fmt.Errorf("lila: buffering v2 trace: %w", readErr)
		// Salvage decodes whatever arrived before a transport error;
		// its torn last block is itemized like any other.
		if !o.Salvage || len(data) == 0 {
			return nil, readErr
		}
	}
	v, err := ParseV2(data, limits)
	if err != nil {
		return nil, err
	}
	report := newReport(o.Salvage)
	if readErr != nil {
		report.note(readErr)
		report.TruncatedTail = true
	}
	c, err := v.cursor(report)
	if err != nil {
		return nil, err
	}
	return &V2Reader{c: c}, nil
}

// Header implements Reader.
func (vr *V2Reader) Header() Header { return vr.c.v.Header() }

// Salvage implements SalvageReporter; it returns nil unless the
// reader was opened in salvage mode.
func (vr *V2Reader) Salvage() *SalvageReport { return vr.c.report }

// Read implements Reader. It returns io.EOF after the end record.
func (vr *V2Reader) Read() (*Record, error) {
	for len(vr.queue) == 0 {
		block, err := vr.c.next()
		if err != nil {
			return nil, err
		}
		if block == nil {
			return nil, io.EOF
		}
		vr.queue = block
	}
	rec := vr.arena.new()
	vr.c.v.d.fill(rec, &vr.queue[0])
	vr.queue = vr.queue[1:]
	return rec, nil
}
