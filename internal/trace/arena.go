package trace

// Slab hands out Session building blocks from chunked arenas. Session
// reconstruction allocates one Interval per call record and one
// ThreadSample slice per sample tick; drawing them from slabs
// amortizes the heap traffic to one allocation per chunk, which is
// what makes million-record ingests cheap. A full build's objects stay
// live for the life of the session, so for it a Slab is strictly an
// allocation batcher. A release-mode build (treebuild.Options.Episode)
// also hands back what it drops: Recycle returns a finished interval
// tree, whose nodes Interval hands out again, and DropTicks the oldest
// tick slices, whose chunks AppendSample reuses once no tick points
// into them. The zero value is ready to use. Not safe for concurrent
// use; each session build owns its own Slab.
type Slab struct {
	intervals []Interval
	episodes  []Episode
	// free holds recycled intervals, zeroed but for Children, which
	// keeps its backing array at length 0.
	free []*Interval

	// samples is the current ThreadSample chunk with len = used. Tick
	// slices are windows into it; only the most recently returned
	// window (starting at open) may still grow.
	samples []ThreadSample
	open    int
	// ticks counts the tick slices that start in samples, and full the
	// earlier chunks tick slices may still point into, oldest first;
	// spare holds chunks that none does.
	ticks int
	full  []fullChunk
	spare [][]ThreadSample
}

// fullChunk is an exhausted ThreadSample chunk and the number of tick
// slices that start in it.
type fullChunk struct {
	buf   []ThreadSample
	ticks int
}

const (
	intervalChunk = 512
	episodeChunk  = 64
	sampleChunk   = 1024
)

// Interval returns a pointer to a zeroed Interval that remains valid
// after the arena moves on. A recycled one keeps its empty Children
// backing array.
func (s *Slab) Interval() *Interval {
	if n := len(s.free); n > 0 {
		iv := s.free[n-1]
		s.free = s.free[:n-1]
		return iv
	}
	if len(s.intervals) == 0 {
		s.intervals = make([]Interval, intervalChunk)
	}
	iv := &s.intervals[0]
	s.intervals = s.intervals[1:]
	return iv
}

// Recycle hands every node of the tree rooted at root back to Interval.
// Nothing may reach the tree afterwards.
func (s *Slab) Recycle(root *Interval) {
	s.free = append(s.free, root)
	for i := len(s.free) - 1; i < len(s.free); i++ {
		iv := s.free[i]
		s.free = append(s.free, iv.Children...)
		*iv = Interval{Children: iv.Children[:0]}
	}
}

// Episode returns a pointer to a zeroed Episode.
func (s *Slab) Episode() *Episode {
	if len(s.episodes) == 0 {
		s.episodes = make([]Episode, episodeChunk)
	}
	e := &s.episodes[0]
	s.episodes = s.episodes[1:]
	return e
}

// AppendSample appends v to the tick slice ts and returns the grown
// slice. ts must be either empty (starting a new tick) or the slice
// most recently returned by AppendSample: record streams are
// time-ordered, so a session builder only ever grows its latest tick,
// and that is the invariant that lets consecutive ticks pack into one
// backing chunk. Returned slices are capped at their length, so an
// append by anyone other than the Slab copies instead of corrupting a
// neighbouring tick.
func (s *Slab) AppendSample(ts []ThreadSample, v ThreadSample) []ThreadSample {
	if len(ts) == 0 {
		if len(s.samples) == cap(s.samples) {
			s.chunk(sampleChunk)
		}
		s.ticks++
		s.open = len(s.samples)
		s.samples = append(s.samples, v)
		return s.samples[s.open:len(s.samples):len(s.samples)]
	}
	if len(s.samples) < cap(s.samples) && s.open+len(ts) == len(s.samples) {
		s.samples = append(s.samples, v)
		return s.samples[s.open:len(s.samples):len(s.samples)]
	}
	// Chunk exhausted mid-tick (or ts is not the open tick after all):
	// move the tick to a fresh chunk so it stays contiguous.
	s.ticks--
	s.chunk(max(sampleChunk, 2*(len(ts)+1)))
	s.ticks++
	s.samples = append(s.samples, ts...)
	s.samples = append(s.samples, v)
	s.open = 0
	return s.samples[0:len(s.samples):len(s.samples)]
}

// chunk starts a chunk of at least n samples, a spare one if it fits.
func (s *Slab) chunk(n int) {
	if s.samples != nil {
		s.full = append(s.full, fullChunk{buf: s.samples[:0], ticks: s.ticks})
	}
	if k := len(s.spare) - 1; k >= 0 && cap(s.spare[k]) >= n {
		s.samples, s.spare = s.spare[k], s.spare[:k]
	} else {
		s.samples = make([]ThreadSample, 0, n)
	}
	s.ticks = 0
}

// DropTicks records that the k oldest tick slices AppendSample returned
// are gone. Each exhausted chunk that no remaining tick points into
// becomes spare.
func (s *Slab) DropTicks(k int) {
	i := 0
	for ; i < len(s.full) && s.full[i].ticks <= k; i++ {
		k -= s.full[i].ticks
		s.spare = append(s.spare, s.full[i].buf)
	}
	n := copy(s.full, s.full[i:])
	clear(s.full[n:])
	s.full = s.full[:n]
	if n > 0 {
		s.full[0].ticks -= k
	} else {
		s.ticks -= k
	}
}
