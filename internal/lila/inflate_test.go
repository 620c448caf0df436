package lila

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// flateInflate is the block inflate the in-package decoder replaced,
// kept as its oracle: io.ReadFull of rawLen bytes from a compress/flate
// reader, then a one-byte read that must yield nothing.
func flateInflate(stored []byte, rawLen int) ([]byte, error) {
	fr := flate.NewReader(bytes.NewReader(stored))
	buf := make([]byte, rawLen)
	if _, err := io.ReadFull(fr, buf); err != nil {
		return nil, fmt.Errorf("inflating block payload: %w", err)
	}
	var tail [1]byte
	if n, _ := fr.Read(tail[:]); n != 0 {
		return nil, fmt.Errorf("inflated payload exceeds declared length %d", rawLen)
	}
	return buf, nil
}

// inflateOutcome names how an inflate ended: accepted, the stream
// yielding too much, too little (truncated or ending early), or
// corrupt. Corrupt-stream messages differ between the decoders.
func inflateOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case strings.Contains(err.Error(), "exceeds declared length"):
		return err.Error()
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "unexpected EOF"
	case errors.Is(err, io.EOF):
		return "EOF"
	default:
		return "corrupt"
	}
}

// checkInflate requires sc and the oracle to agree on stored: both
// accept it with the same bytes, or both refuse it the same way.
func checkInflate(t testing.TB, sc *v2scratch, stored []byte, rawLen int) {
	t.Helper()
	want, wantErr := flateInflate(stored, rawLen)
	got, err := sc.inflate(stored, rawLen)
	if g, w := inflateOutcome(err), inflateOutcome(wantErr); g != w {
		t.Fatalf("inflate(%x, %d): %v (%s), compress/flate: %v (%s)", stored, rawLen, err, g, wantErr, w)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("inflate(%x, %d): output differs from compress/flate", stored, rawLen)
	}
}

// deflateAt compresses p at a compress/flate level.
func deflateAt(t testing.TB, p []byte, level int) []byte {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bitWriter builds DEFLATE streams bit by bit, first bit lowest.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
	}
}

// code writes a Huffman code, whose first bit is its highest.
func (w *bitWriter) code(c uint16, l uint8) {
	for i := int(l) - 1; i >= 0; i-- {
		w.bits(uint64(c>>i&1), 1)
	}
}

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		return append(w.buf, byte(w.acc))
	}
	return w.buf
}

// canonCodes assigns the canonical DEFLATE codes of lens.
func canonCodes(lens []uint8) []uint16 {
	var count, next [maxCodeLen + 1]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l, code := 1, uint16(0); l <= maxCodeLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	codes := make([]uint16, len(lens))
	for s, l := range lens {
		if l != 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// dynBlock writes a dynamic block header for the given code lengths;
// its code length code gives each of the lengths 0–15 a 4-bit code,
// which is the length itself.
func (w *bitWriter) dynBlock(final bool, lit, dist []uint8) {
	if final {
		w.bits(1, 1)
	} else {
		w.bits(0, 1)
	}
	w.bits(2, 2)
	w.bits(uint64(len(lit)-257), 5)
	w.bits(uint64(len(dist)-1), 5)
	w.bits(numClenSyms-4, 4)
	for _, s := range clenOrder {
		if s < 16 {
			w.bits(4, 3)
		} else {
			w.bits(0, 3)
		}
	}
	for _, l := range append(append([]uint8{}, lit...), dist...) {
		w.code(uint16(l), 4)
	}
}

// edgeStreams appends hand-built streams at the edges of the format,
// each with the number of bytes it yields, to stored and rawLen.
func edgeStreams(stored [][]byte, rawLen []int) ([][]byte, []int) {
	add := func(s []byte, n int) {
		stored = append(stored, s)
		rawLen = append(rawLen, n)
	}
	// lit returns literal/length code lengths with the given ones set.
	lit := func(lens map[int]uint8) []uint8 {
		l := make([]uint8, 258)
		for s, n := range lens {
			l[s] = n
		}
		return l
	}

	// A literal, a length and the end of block in one bit or two.
	aLenEOB := lit(map[int]uint8{'a': 1, 256: 2, 257: 2})
	lc := canonCodes(aLenEOB)

	// An empty distance tree: literals and the end of block decode,
	// a length code does not.
	w := &bitWriter{}
	w.dynBlock(true, aLenEOB, []uint8{0})
	for i := 0; i < 3; i++ {
		w.code(lc['a'], 1)
	}
	w.code(lc[256], 2)
	add(w.bytes(), 3)
	w = &bitWriter{}
	w.dynBlock(true, aLenEOB, []uint8{0})
	w.code(lc['a'], 1)
	w.code(lc[257], 2)
	w.code(lc[256], 2)
	add(w.bytes(), 4)

	// A single one-bit distance code: "0" is distance 1, "1" invalid.
	for _, bit := range []uint16{0, 1} {
		w = &bitWriter{}
		w.dynBlock(true, aLenEOB, []uint8{1})
		w.code(lc['a'], 1)
		w.code(lc[257], 2) // length 3
		w.code(bit, 1)
		w.code(lc[256], 2)
		add(w.bytes(), 4)
	}

	// The end-of-block code is longer than the literals, so
	// compress/flate loads three bits before each one-bit literal;
	// each stream also appears cut just after its last literal.
	eobLong := lit(map[int]uint8{'a': 1, 'b': 2, 256: 3, 257: 3})
	ec := canonCodes(eobLong)
	for n := 1; n <= 9; n++ {
		w = &bitWriter{}
		w.dynBlock(true, eobLong, []uint8{1})
		for i := 0; i < n; i++ {
			w.code(ec['a'], 1)
		}
		add(bytes.Clone(w.bytes()), n)
		w.code(ec[256], 3)
		add(w.bytes(), n)
	}

	// A stored block that claims 10 bytes and holds 6.
	add([]byte{1, 10, 0, 0xf5, 0xff, 'l', 'a', 'g', 'a', 'l', 'y'}, 10)

	// A non-final fixed block, then a stored block after a partial
	// byte, then trailing input that must be ignored.
	w = &bitWriter{}
	w.bits(0, 1)
	w.bits(1, 2)
	w.code(0x30+'x', 8) // fixed code of a literal below 144
	w.code(0, 7)        // fixed end of block
	w.bits(1, 1)
	w.bits(0, 2)
	add(append(w.bytes(), 2, 0, 0xfd, 0xff, 'y', 'z', 0xde, 0xad), 3)
	return stored, rawLen
}

// rawV2 encodes a raw v2 trace of v2LongRecords(pairs).
func rawV2(t testing.TB, pairs int) []byte {
	data, err := EncodeV2(testHeader(), v2LongRecords(pairs))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// inflateSeeds returns the writer's output at levels -2, 0, 1, 6 and 9
// over a raw v2 trace (Huffman-only, stored and dynamic blocks), a
// tiny input at level 6 (a fixed block), and the edge streams.
func inflateSeeds(t testing.TB) (stored [][]byte, rawLen []int) {
	payload := rawV2(t, 1500)
	for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression} {
		stored = append(stored, deflateAt(t, payload, level))
		rawLen = append(rawLen, len(payload))
	}
	tiny := []byte("lila v2")
	stored = append(stored, deflateAt(t, tiny, flate.DefaultCompression))
	rawLen = append(rawLen, len(tiny))
	return edgeStreams(stored, rawLen)
}

// TestInflateMatchesFlate is the deterministic differential check:
// every seed, with its declared length one short, exact and one over,
// cut at sampled lengths and with sampled bits flipped, must inflate
// exactly as compress/flate inflates it.
func TestInflateMatchesFlate(t *testing.T) {
	stored, rawLen := inflateSeeds(t)
	// The seeds cover every block type.
	types := map[byte]bool{}
	for _, s := range stored[:6] {
		types[s[0]>>1&3] = true
	}
	for typ := byte(0); typ < 3; typ++ {
		if !types[typ] {
			t.Errorf("no seed starts with a block of type %d", typ)
		}
	}
	sc := &v2scratch{}
	for i, s := range stored {
		n := rawLen[i]
		for _, rl := range []int{n - 1, n, n + 1} {
			if rl > 0 {
				checkInflate(t, sc, s, rl)
			}
		}
		step := max(1, len(s)/150)
		for cut := 0; cut < len(s); cut += step {
			checkInflate(t, sc, s[:cut], n)
			mut := bytes.Clone(s)
			mut[cut] ^= 1 << (cut % 8)
			checkInflate(t, sc, mut, n)
		}
		if _, err := flateInflate(s, n); i < 6 && err != nil {
			t.Errorf("writer seed %d: compress/flate: %v", i, err)
		}
	}
}

// FuzzInflate requires the decoder and compress/flate to agree on
// every stream and declared length: both accept with the same bytes,
// or both refuse the same way.
func FuzzInflate(f *testing.F) {
	stored, rawLen := inflateSeeds(f)
	for i := range stored {
		for _, rl := range []int{rawLen[i] - 1, rawLen[i], rawLen[i] + 1} {
			f.Add(stored[i], rl)
		}
	}
	sc := &v2scratch{}
	f.Fuzz(func(t *testing.T, stored []byte, rawLen int) {
		if rawLen < 1 || rawLen > 1<<20 {
			return
		}
		checkInflate(t, sc, stored, rawLen)
	})
}

// TestInflateSteadyStateAllocs pins that a warm scratch inflates a
// dynamic and a fixed block without allocating.
func TestInflateSteadyStateAllocs(t *testing.T) {
	payload := rawV2(t, 500)
	dynamic := deflateAt(t, payload, flate.DefaultCompression)
	tiny := []byte("lila v2")
	fixed := deflateAt(t, tiny, flate.DefaultCompression)
	if dynamic[0]>>1&3 != 2 || fixed[0]>>1&3 != 1 {
		t.Fatalf("block types %d and %d, want dynamic and fixed", dynamic[0]>>1&3, fixed[0]>>1&3)
	}
	sc := &v2scratch{}
	run := func() {
		if _, err := sc.inflate(dynamic, len(payload)); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.inflate(fixed, len(tiny)); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("warm inflate allocates %.1f times per run, want 0", allocs)
	}
}
