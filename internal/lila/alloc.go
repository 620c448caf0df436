package lila

import (
	"hash/maphash"
	"sync"

	"lagalyzer/internal/intern"
	"lagalyzer/internal/trace"
)

// Allocation-lean decode plumbing shared by the text, binary, and
// salvage readers. A multi-hundred-thousand-record session used to
// cost one heap allocation per record plus one per sampled stack;
// the arenas below amortize the former to one allocation per chunk
// and the dedup table collapses the latter onto one shared slice per
// distinct stack, which matters because real samplers see the same
// few stacks (the idle EDT stack, parked workers) tens of thousands
// of times per session.

// recChunkSize is the records-per-allocation granularity of recArena.
// Records handed out are never recycled — they stay valid for the
// life of the session being built — so the only cost of a larger
// chunk is tail waste on the final one.
const recChunkSize = 1024

// recArena hands out Record slots from chunked slabs. The zero value
// is ready to use. Not safe for concurrent use; every reader owns its
// own arena (LoadTraceDir parallelism is one reader per file).
type recArena struct {
	chunk []Record
}

// new returns a pointer to a zeroed Record that remains valid (and is
// never reused) after the arena moves on.
func (a *recArena) new() *Record {
	if len(a.chunk) == 0 {
		a.chunk = make([]Record, recChunkSize)
	}
	r := &a.chunk[0]
	a.chunk = a.chunk[1:]
	return r
}

// stackTab deduplicates decoded call stacks within one session: the
// decoder parses each sample's frames into a scratch buffer, and the
// table either returns the shared slice of an identical earlier stack
// or copies the scratch into a fresh canonical slice. Frame strings
// are interned before lookup, so equality checks usually
// short-circuit on identical string data pointers.
type stackTab struct {
	m map[uint64][][]trace.Frame
}

// stackSeed seeds stackTab's frame hash; the hash only picks buckets,
// so its per-process value never shows in any output.
var stackSeed = maphash.MakeSeed()

// canon returns the canonical slice for the frames in scratch,
// copying them only the first time this exact stack is seen.
func (t *stackTab) canon(scratch []trace.Frame) []trace.Frame {
	if len(scratch) == 0 {
		return nil
	}
	h := uint64(len(scratch))
	for i := range scratch {
		f := &scratch[i]
		h = (h ^ maphash.String(stackSeed, f.Class)) * 1099511628211
		h = (h ^ maphash.String(stackSeed, f.Method)) * 1099511628211
		if f.Native {
			h ^= 1
		}
	}
	if t.m == nil {
		t.m = make(map[uint64][][]trace.Frame)
	}
	for _, cand := range t.m[h] {
		if framesEqual(cand, scratch) {
			return cand
		}
	}
	cp := make([]trace.Frame, len(scratch))
	copy(cp, scratch)
	t.m[h] = append(t.m[h], cp)
	return cp
}

func framesEqual(a, b []trace.Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scratchPool recycles the byte buffers the binary decoders read
// inline strings into before interning; the pooled buffer never
// escapes a single readString call.
var scratchPool = sync.Pool{
	New: func() any { return make([]byte, 0, 256) },
}

// internBytes is intern.Bytes; aliased here so the decoders read as
// one layer.
func internBytes(b []byte) string { return intern.Bytes(b) }

// internString is intern.String for the text decoder's tokens.
func internString(s string) string { return intern.String(s) }
