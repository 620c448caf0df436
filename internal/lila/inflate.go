package lila

import (
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
)

// A DEFLATE (RFC 1951) decoder for one compressed v2 block held in
// memory. Each v2 block is its own DEFLATE stream whose stored bytes
// and exact inflated length are known before it is decoded, so the
// decoder writes straight into a buffer of that length, which also
// serves as the back-reference window, and refills its bit buffer 64
// bits at a time from the stored slice. Its Huffman tables are rebuilt
// for every block inside fixed arrays the decoder keeps, so a warm
// inflater allocates nothing.
//
// It accepts and refuses exactly what io.ReadFull of the inflated
// length from a compress/flate reader, followed by a one-byte read that
// must yield nothing, accepts and refuses: the stream must yield exactly
// len(out) bytes before it ends or fails, and input after the final
// block is ignored. Matching that reader at a truncated stream means
// matching how far it reads ahead: before it looks up a
// literal/length code of a dynamic block it loads as many bits as the
// end-of-block code is long, and it fails if the input cannot supply
// them even when the code itself is shorter.

const (
	maxCodeLen  = 15  // longest DEFLATE code
	maxMatch    = 258 // longest back-reference
	numLitSyms  = 288 // literal/length alphabet, with the two fixed-code symbols no stream may use
	numDistSyms = 32  // distance alphabet, likewise
	numClenSyms = 19  // code length alphabet

	// Root table widths. Longer codes continue in sub-tables laid out
	// after the root, sized as zlib's inflate_table sizes them, so the
	// worst case over all codes is zlib's `enough` bound for the
	// alphabet, root width and longest code.
	litRootBits   = 10
	distRootBits  = 8
	clenRootBits  = 7    // code length codes are at most 7 bits: no sub-tables
	litTableSize  = 1334 // enough 288 10 15
	distTableSize = 402  // enough 32 8 15
)

// A table entry packs a symbol's code length (bits 0–3), its extra bit
// count or, for a sub-table pointer, the sub-table's index width
// (bits 4–7), its kind (the ent flags) and its value (bits 16–31). An
// entry with no kind is a code the stream may not use: an unassigned
// code of an incomplete table, whose length is 0, or a fixed-code
// symbol outside the alphabet.
const (
	entLit  = 1 << 8  // value is a literal byte, or a code length symbol
	entBase = 1 << 9  // value is a length or distance base; extra bits follow the code
	entEOB  = 1 << 10 // end of block
	entSub  = 1 << 11 // value is the offset of a sub-table
)

// Symbol entries without their code lengths, per alphabet.
var (
	litEntries  [numLitSyms]uint32
	distEntries [numDistSyms]uint32
	clenEntries [numClenSyms]uint32
	fixedLens   [numLitSyms + numDistSyms]uint8
)

func init() {
	for s := 0; s < 256; s++ {
		litEntries[s] = entLit | uint32(s)<<16
	}
	litEntries[256] = entEOB
	base, extra := 3, 0
	for s := 257; s < 286; s++ {
		if s >= 265 && s < 285 && (s-265)%4 == 0 {
			extra++
		}
		if s == 285 {
			base, extra = 258, 0
		}
		litEntries[s] = entBase | uint32(extra)<<4 | uint32(base)<<16
		base += 1 << extra
	}
	base, extra = 1, 0
	for s := 0; s < 30; s++ {
		if s >= 4 && s%2 == 0 {
			extra++
		}
		distEntries[s] = entBase | uint32(extra)<<4 | uint32(base)<<16
		base += 1 << extra
	}
	for s := range clenEntries {
		clenEntries[s] = entLit | uint32(s)<<16
	}
	for s := range fixedLens {
		switch {
		case s < 144:
			fixedLens[s] = 8
		case s < 256:
			fixedLens[s] = 9
		case s < 280:
			fixedLens[s] = 7
		case s < numLitSyms:
			fixedLens[s] = 8
		default:
			fixedLens[s] = 5
		}
	}
}

// clenOrder is the order in which a dynamic header lists the code
// length code's lengths.
var clenOrder = [numClenSyms]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// errInflateExceeds reports a stream that yields more bytes than the
// buffer it is inflated into holds.
var errInflateExceeds = errors.New("inflated payload exceeds declared length")

// inflateCorrupt is a stream compress/flate also rejects as corrupt.
type inflateCorrupt string

func (e inflateCorrupt) Error() string { return "corrupt deflate stream: " + string(e) }

// inflater holds the decode state of one stream and the tables it
// rebuilds for each block. Not safe for concurrent use.
type inflater struct {
	in    []byte
	ip    int    // next input byte to load; past len(in), zero bits are loaded
	bits  uint64 // loaded bits not yet consumed, first bit lowest
	nbits uint   // how many of bits are loaded

	lit      [litTableSize]uint32
	dist     [distTableSize]uint32
	clen     [1 << clenRootBits]uint32
	litNeed  uint // bits compress/flate loads before a lookup in lit
	distNeed uint // likewise in dist
	lens     [286 + 30]uint8
}

// inflate decodes the DEFLATE stream in into out. It succeeds iff the
// stream yields exactly len(out) bytes before it ends or fails; a
// stream that yields more fails with errInflateExceeds.
func (f *inflater) inflate(out, in []byte) error {
	f.in, f.ip, f.bits, f.nbits = in, 0, 0, 0
	op, err := f.blocks(out)
	f.in = nil
	switch {
	case err == errInflateExceeds:
		return err
	case op == len(out):
		return nil
	case err != nil:
		return err
	case op == 0:
		return io.EOF // as io.ReadFull reports a stream that ends empty
	default:
		return io.ErrUnexpectedEOF
	}
}

// blocks decodes blocks into out until the final one ends or one
// fails, and returns how many bytes they yielded.
func (f *inflater) blocks(out []byte) (int, error) {
	op := 0
	for {
		if !f.have(3) {
			return op, io.ErrUnexpectedEOF
		}
		final := f.bits&1 != 0
		typ := f.bits >> 1 & 3
		f.consume(3)
		var err error
		switch typ {
		case 0:
			op, err = f.stored(out, op)
		case 1:
			if err = f.tables(fixedLens[:numLitSyms], fixedLens[numLitSyms:]); err == nil {
				op, err = f.huffman(out, op)
			}
		case 2:
			if err = f.dynamicTables(); err == nil {
				op, err = f.huffman(out, op)
			}
		default:
			err = inflateCorrupt("reserved block type")
		}
		if err != nil || final {
			return op, err
		}
	}
}

// have loads bits until at least n (at most 56) are buffered and
// reports whether the next n bits lie within the input.
func (f *inflater) have(n uint) bool {
	for f.nbits < n {
		if f.ip < len(f.in) {
			f.bits |= uint64(f.in[f.ip]) << f.nbits
		}
		f.ip++
		f.nbits += 8
	}
	return f.within(n)
}

// within reports whether the next n loaded bits lie within the input.
func (f *inflater) within(n uint) bool {
	return 8*f.ip-int(f.nbits)+int(n) <= 8*len(f.in)
}

func (f *inflater) consume(n uint) {
	f.bits >>= n
	f.nbits -= n
}

// stored copies a stored block's bytes, which start at the next byte
// boundary. A block cut short yields what it holds, then fails.
func (f *inflater) stored(out []byte, op int) (int, error) {
	f.consume(f.nbits & 7)
	pos := f.ip - int(f.nbits/8)
	f.bits, f.nbits = 0, 0
	if pos+4 > len(f.in) {
		f.ip = pos
		return op, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(f.in[pos:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(f.in[pos+2:]) {
		return op, inflateCorrupt("stored block length mismatch")
	}
	pos += 4
	m := min(n, len(f.in)-pos)
	if op+m > len(out) {
		return op, errInflateExceeds
	}
	op += copy(out[op:], f.in[pos:pos+m])
	f.ip = pos + m
	if m < n {
		return op, io.ErrUnexpectedEOF
	}
	return op, nil
}

// dynamicTables reads a dynamic block's header and builds its tables.
func (f *inflater) dynamicTables() error {
	if !f.have(14) {
		return io.ErrUnexpectedEOF
	}
	nlit := int(f.bits&31) + 257
	ndist := int(f.bits>>5&31) + 1
	nclen := int(f.bits>>10&15) + 4
	if nlit > 286 || ndist > 30 {
		return inflateCorrupt("too many length or distance codes")
	}
	f.consume(14)
	var clens [numClenSyms]uint8
	for _, s := range clenOrder[:nclen] {
		if !f.have(3) {
			return io.ErrUnexpectedEOF
		}
		clens[s] = uint8(f.bits & 7)
		f.consume(3)
	}
	need, ok := buildTable(f.clen[:], clenRootBits, clens[:], clenEntries[:])
	if !ok {
		return inflateCorrupt("invalid code length code")
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		e, err := f.sym(f.clen[:], clenRootBits, need)
		if err != nil {
			return err
		}
		v := uint8(e >> 16)
		if v < 16 {
			lens[i] = v
			i++
			continue
		}
		rep, nb, fill := 3, uint(2), uint8(0)
		switch v {
		case 16:
			if i == 0 {
				return inflateCorrupt("repeat with no previous length")
			}
			fill = lens[i-1]
		case 17:
			nb = 3
		default:
			rep, nb = 11, 7
		}
		if !f.have(nb) {
			return io.ErrUnexpectedEOF
		}
		rep += int(f.bits & (1<<nb - 1))
		f.consume(nb)
		if i+rep > len(lens) {
			return inflateCorrupt("code lengths overrun")
		}
		for end := i + rep; i < end; i++ {
			lens[i] = fill
		}
	}
	return f.tables(lens[:nlit], lens[nlit:])
}

// tables builds the literal/length and distance tables of a block.
func (f *inflater) tables(litLens, distLens []uint8) error {
	litMin, ok := buildTable(f.lit[:], litRootBits, litLens, litEntries[:])
	distMin, dok := buildTable(f.dist[:], distRootBits, distLens, distEntries[:])
	if !ok || !dok {
		return inflateCorrupt("invalid literal/length or distance code")
	}
	f.litNeed = max(litMin, uint(litLens[256]))
	f.distNeed = distMin
	return nil
}

// buildTable fills t with the decode table of the code whose lengths
// (0 = unused) are lens: a root table indexed by the next root input
// bits, whose entries for longer codes point to sub-tables after it.
// entries holds each symbol's entry without its length. It accepts
// what compress/flate accepts: a complete code, a lone one-bit code or
// no code at all, and returns the shortest code length.
func buildTable(t []uint32, root uint, lens []uint8, entries []uint32) (uint, bool) {
	var count [maxCodeLen + 1]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	left := 1
	for l := 1; l <= maxCodeLen; l++ {
		if left = left<<1 - count[l]; left < 0 {
			return 0, false // oversubscribed
		}
	}
	maxLen := maxCodeLen
	for maxLen > 0 && count[maxLen] == 0 {
		maxLen--
	}
	if left != 0 {
		if maxLen > 1 {
			return 0, false // incomplete
		}
		clear(t[:1<<root]) // lookups the code leaves unassigned are invalid
	}
	var offs [maxCodeLen + 2]int
	for l := 1; l <= maxCodeLen; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	total := offs[maxCodeLen+1]
	var sorted [numLitSyms]uint16
	for s, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}
	mask := 1<<root - 1
	next := 1 << root       // where the next sub-table starts
	sub, subBase := -1, 0   // root index and offset of the current sub-table
	subBits, minLen := 0, 0 // its index width; the shortest code length
	code, prev := 0, 0      // the canonical code of the symbol, and its predecessor's length
	for _, s := range sorted[:total] {
		l := int(lens[s])
		if prev == 0 {
			minLen = l
		} else {
			code = (code + 1) << (l - prev)
		}
		prev = l
		rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
		e := entries[s] | uint32(l)
		if l <= int(root) {
			for j := rev; j <= mask; j += 1 << l {
				t[j] = e
			}
			continue
		}
		if rev&mask != sub {
			// The smallest sub-table that holds every code left under
			// this root index: codes are assigned in canonical order,
			// so they fill it from the first.
			subBits = l - int(root)
			for room := 1 << subBits; subBits+int(root) < maxLen; room <<= 1 {
				if room -= count[subBits+int(root)]; room <= 0 {
					break
				}
				subBits++
			}
			if next+1<<subBits > len(t) {
				return 0, false // beyond the enough bound; no complete code gets here
			}
			sub, subBase = rev&mask, next
			t[sub] = entSub | uint32(subBits)<<4 | uint32(subBase)<<16
			next += 1 << subBits
		}
		for j := rev >> root; j < 1<<subBits; j += 1 << (l - int(root)) {
			t[subBase+j] = e
		}
		count[l]--
	}
	return uint(minLen), true
}

// sym decodes one symbol with table t, whose lookups compress/flate
// starts by loading need bits.
func (f *inflater) sym(t []uint32, root, need uint) (uint32, error) {
	f.have(maxCodeLen)
	e := t[f.bits&(1<<root-1)]
	if e&entSub != 0 {
		e = t[e>>16+uint32(f.bits>>root)&(1<<(e>>4&15)-1)]
	}
	if !f.within(max(uint(e&15), need)) {
		return 0, io.ErrUnexpectedEOF
	}
	if e&(entLit|entBase|entEOB) == 0 {
		return 0, inflateCorrupt("invalid code")
	}
	f.consume(uint(e & 15))
	return e, nil
}

// extra reads the extra bits of a length or distance entry.
func (f *inflater) extra(e uint32) (int, error) {
	nb := uint(e >> 4 & 15)
	if !f.have(nb) {
		return 0, io.ErrUnexpectedEOF
	}
	v := int(e>>16) + int(f.bits&(1<<nb-1))
	f.consume(nb)
	return v, nil
}

// huffman decodes one block's symbols. The fast loop takes every
// symbol it can; this loop takes the rest one at a time, and is the
// only one that meets the end of the input or of out.
func (f *inflater) huffman(out []byte, op int) (int, error) {
	for {
		op = f.fast(out, op)
		e, err := f.sym(f.lit[:], litRootBits, f.litNeed)
		if err != nil {
			return op, err
		}
		switch {
		case e&entLit != 0:
			if op == len(out) {
				return op, errInflateExceeds
			}
			out[op] = byte(e >> 16)
			op++
			continue
		case e&entEOB != 0:
			return op, nil
		}
		length, err := f.extra(e)
		if err != nil {
			return op, err
		}
		d, err := f.sym(f.dist[:], distRootBits, f.distNeed)
		if err != nil {
			return op, err
		}
		dist, err := f.extra(d)
		if err != nil {
			return op, err
		}
		if dist > op {
			return op, inflateCorrupt("distance beyond the output")
		}
		if length > len(out)-op {
			return op, errInflateExceeds
		}
		op = copyMatch(out, op, dist, length)
	}
}

// fast decodes symbols while at least 8 input bytes and room for the
// longest match remain, so no symbol can run past either end. On an
// end of block, an invalid code or distance, it stops at the start of
// the symbol for huffman to decode.
func (f *inflater) fast(out []byte, op int) int {
	in, ip, b, nb := f.in, f.ip, f.bits, f.nbits
	lit, dist := &f.lit, &f.dist
	for ip+8 <= len(in) && op+maxMatch <= len(out) {
		b |= binary.LittleEndian.Uint64(in[ip:]) << nb
		ip += int(63-nb) >> 3
		nb |= 56 // at least 56 bits loaded: a whole length/distance pair
		e := lit[b&(1<<litRootBits-1)]
		if e&entSub != 0 {
			e = lit[e>>16+uint32(b>>litRootBits)&(1<<(e>>4&15)-1)]
		}
		if e&entLit != 0 {
			out[op] = byte(e >> 16)
			op++
			b >>= e & 15
			nb -= uint(e & 15)
			continue
		}
		if e&entBase == 0 {
			break
		}
		used := uint(e & 15)
		xb := uint(e >> 4 & 15)
		length := int(e>>16) + int(b>>used&(1<<xb-1))
		used += xb
		d := dist[b>>used&(1<<distRootBits-1)]
		if d&entSub != 0 {
			d = dist[d>>16+uint32(b>>(used+distRootBits))&(1<<(d>>4&15)-1)]
		}
		if d&entBase == 0 {
			break
		}
		used += uint(d & 15)
		xb = uint(d >> 4 & 15)
		distance := int(d>>16) + int(b>>used&(1<<xb-1))
		if distance > op {
			break
		}
		used += xb
		b >>= used
		nb -= used
		op = copyMatch(out, op, distance, length)
	}
	f.ip, f.bits, f.nbits = ip, b, nb
	return op
}

// copyMatch copies length bytes from dist back in out to out[op:];
// an overlapping match copies the bytes it has just written.
func copyMatch(out []byte, op, dist, length int) int {
	end, src := op+length, op-dist
	for op < end {
		op += copy(out[op:end], out[src:op])
	}
	return op
}
