package lila

import (
	"hash/maphash"

	"lagalyzer/internal/trace"
)

// Allocation-lean decode plumbing shared by the text and v2
// readers. A multi-hundred-thousand-record session used to
// cost one heap allocation per record plus one per sampled stack;
// the arena below amortizes the former to one allocation per chunk
// for readers whose records outlive a call (the text reader, and the
// v2 Records and V2Reader), and the dedup table collapses the latter
// onto one shared slice per distinct stack, which matters because
// real samplers see the same few stacks (the idle EDT stack, parked
// workers) tens of thousands of times per session. V2File.Each needs
// no arena: a v2 block decodes to pointer-free compact records, and
// Each refills one Record from them for every call of its fn.

// recChunkSize is the records-per-allocation granularity of recArena.
// The only cost of a larger chunk is tail waste on the final one.
const recChunkSize = 1024

// recArena hands out Record slots from chunked slabs; records stay
// valid for the life of the session being built. Not safe for
// concurrent use; every reader owns its own arena.
type recArena struct {
	chunk []Record // unused tail of the current chunk
}

// new returns a pointer to a zeroed Record.
func (a *recArena) new() *Record {
	if len(a.chunk) == 0 {
		a.chunk = make([]Record, recChunkSize)
	}
	r := &a.chunk[0]
	a.chunk = a.chunk[1:]
	return r
}

// StackTab deduplicates sampled call stacks within one session: a
// decoder, the v2 writer, or the simulator builds each stack in a
// scratch buffer, and the table either returns the shared slice of an
// identical earlier stack or copies the scratch into a fresh canonical
// slice. A reader's equal frame strings share one backing (its symbol
// table), so equality checks usually short-circuit on identical string
// data pointers.
type StackTab struct {
	first map[uint64][]trace.Frame   // the first stack seen with each hash
	more  map[uint64][][]trace.Frame // later stacks sharing a hash; made on the first such stack
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
	if t.first == nil {
		t.first = make(map[uint64][]trace.Frame)
	}
	first, seen := t.first[h]
	if seen {
		if framesEqual(first, scratch) {
			return first
		}
		for _, cand := range t.more[h] {
			if framesEqual(cand, scratch) {
				return cand
			}
		}
	}
	cp := make([]trace.Frame, len(scratch))
	copy(cp, scratch)
	switch {
	case !seen:
		t.first[h] = cp
	case t.more == nil:
		t.more = map[uint64][][]trace.Frame{h: {cp}}
	default:
		t.more[h] = append(t.more[h], cp)
	}
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
