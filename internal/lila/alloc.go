package lila

import (
	"hash/maphash"

	"lagalyzer/internal/trace"
)

// Allocation-lean decode plumbing shared by the text and v2
// readers. A multi-hundred-thousand-record session used to
// cost one heap allocation per record plus one per sampled stack;
// the arenas below amortize the former to one allocation per chunk
// and the dedup table collapses the latter onto one shared slice per
// distinct stack, which matters because real samplers see the same
// few stacks (the idle EDT stack, parked workers) tens of thousands
// of times per session.

// recChunkSize is the records-per-allocation granularity of recArena.
// The only cost of a larger chunk is tail waste on the final one.
const recChunkSize = 1024

// recArena hands out Record slots from chunked slabs. The zero value
// never recycles: records stay valid for the life of the session
// being built. A recycling arena is per-block scratch: after reset,
// the next block's records overwrite this one's. Not safe for
// concurrent use; every reader or decode worker owns its own arena.
type recArena struct {
	chunk   []Record // unused tail of the current chunk
	recycle bool
	held    [][]Record // a recycling arena's chunks; held[next] is reused next
	next    int
}

// new returns a pointer to a zeroed Record, valid until reset.
func (a *recArena) new() *Record {
	if len(a.chunk) == 0 {
		a.chunk = a.grow()
	}
	r := &a.chunk[0]
	a.chunk = a.chunk[1:]
	return r
}

func (a *recArena) grow() []Record {
	if !a.recycle {
		return make([]Record, recChunkSize)
	}
	if a.next == len(a.held) {
		a.held = append(a.held, make([]Record, recChunkSize))
	}
	a.next++
	c := a.held[a.next-1]
	clear(c)
	return c
}

// reset rewinds a recycling arena to its first chunk.
func (a *recArena) reset() {
	if a.recycle {
		a.chunk, a.next = nil, 0
	}
}

// StackTab deduplicates sampled call stacks within one session: a
// decoder, the v2 writer, or the simulator builds each stack in a
// scratch buffer, and the table either returns the shared slice of an
// identical earlier stack or copies the scratch into a fresh canonical
// slice. A reader's equal frame strings share one backing (its symbol
// table), so equality checks usually short-circuit on identical string
// data pointers.
type StackTab struct {
	m map[uint64][][]trace.Frame
}

// stackSeed seeds StackTab's frame hash; the hash only picks buckets,
// so its per-process value never shows in any output.
var stackSeed = maphash.MakeSeed()

// Canon returns the canonical (read-only) slice for the frames in
// scratch, copying them only the first time this exact stack is seen.
func (t *StackTab) Canon(scratch []trace.Frame) []trace.Frame {
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
