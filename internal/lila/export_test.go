package lila

import "lagalyzer/internal/trace"

// Flatten collects s's record stream, in the order WriteSession
// encodes it, for tests that inspect or re-encode the stream.
func Flatten(s *trace.Session) []*Record {
	var recs []*Record
	f := flatten(s)
	f.each(func(r *Record) error {
		cp := *r
		recs = append(recs, &cp)
		return nil
	})
	return recs
}

// CompressedBlocks returns the stored bytes and declared inflated
// length of each compressed block of v.
func CompressedBlocks(v *V2File) (stored [][]byte, rawLen []int) {
	for _, b := range v.blocks {
		c := &v2cur{data: v.d.data[:b.Offset+b.Length], off: int(b.Offset)}
		plen, _, rl, flags, err := readV2Frame(c)
		if err != nil || flags&v2FlagCompressed == 0 {
			continue
		}
		stored = append(stored, v.d.data[c.off:c.off+int(plen)])
		rawLen = append(rawLen, int(rl))
	}
	return stored, rawLen
}

// BlockInflater inflates blocks as one decoding goroutine of a v2
// read does, reusing its state from block to block.
type BlockInflater struct{ sc v2scratch }

// Inflate inflates one block's stored bytes; the result is valid until
// the next call.
func (b *BlockInflater) Inflate(stored []byte, rawLen int) ([]byte, error) {
	return b.sc.inflate(stored, rawLen)
}
