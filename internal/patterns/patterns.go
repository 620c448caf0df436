// Package patterns implements LagAlyzer's episode classification
// (Sections II-C to II-E of the paper): episodes are grouped into
// equivalence classes ("patterns") according to the structure of their
// interval trees — the interval kinds and their symbolic information —
// while excluding both timing and GC intervals from the comparison.
//
// Excluding timing lets a pattern mix perceptible and imperceptible
// episodes, which is exactly what makes the always/sometimes/once/never
// occurrence classification (Figure 4) informative. Excluding GC nodes
// keeps episodes that differ only by an incidental collection in the
// same class, so a developer can ask whether a class always or rarely
// suffers GCs.
//
// Episodes whose dispatch interval has no non-GC children carry no
// structure to classify and are excluded from pattern mining (they
// remain visible to the trigger analysis as "unspecified" episodes).
//
// The package holds a pattern's integer tallies and their merge; the
// tree walk that fingerprints an episode is the engine's
// (internal/engine: Classify, Fingerprint, and the per-app fold).
package patterns

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"slices"
	"strings"

	"lagalyzer/internal/obs"
	"lagalyzer/internal/stats"
	"lagalyzer/internal/trace"
)

// Classification metrics, flushed once per Finish — never touched on
// the per-episode hot path.
var (
	mPatternsUnique = obs.NewCounter("patterns_unique_total",
		"distinct patterns produced by classification")
	mEpisodesDeduped = obs.NewCounter("patterns_episodes_deduped_total",
		"episodes that matched an already-known pattern")
	mUnstructured = obs.NewCounter("patterns_unstructured_total",
		"episodes excluded from classification (no retained structure)")
)

// EpisodeRef ties an episode to the session it came from, so analyses
// spanning multiple sessions (the study integrates four per
// application) can locate samples and context.
type EpisodeRef struct {
	Session *trace.Session
	Episode *trace.Episode
}

// Occurrence classifies how often a pattern's episodes were
// perceptible (Section IV-B, Figure 4).
type Occurrence int

const (
	// OccNever means none of the pattern's episodes were perceptible.
	OccNever Occurrence = iota
	// OccOnce means exactly one of several episodes was perceptible —
	// often the first, pointing at initialization activity.
	OccOnce
	// OccSometimes means some but not all episodes were perceptible:
	// a potentially non-deterministic phenomenon.
	OccSometimes
	// OccAlways means every episode was perceptible — a deterministic
	// problem. A singleton pattern whose only episode was perceptible
	// is classified as always.
	OccAlways

	numOccurrences = iota
)

var occNames = [numOccurrences]string{
	OccNever:     "never",
	OccOnce:      "once",
	OccSometimes: "sometimes",
	OccAlways:    "always",
}

// String returns the lowercase occurrence name used in Figure 4.
func (o Occurrence) String() string {
	if int(o) >= numOccurrences {
		return fmt.Sprintf("occurrence(%d)", int(o))
	}
	return occNames[o]
}

// Occurrences returns all occurrence classes in severity order
// (never, once, sometimes, always).
func Occurrences() []Occurrence {
	os := make([]Occurrence, numOccurrences)
	for i := range os {
		os[i] = Occurrence(i)
	}
	return os
}

// Pattern is one equivalence class of structurally identical episodes.
type Pattern struct {
	// Canon is the canonical text form of the class's tree structure,
	// e.g. "dispatch(listener[app.B.on](paint[x.P.paint]))". Patterns
	// are equal iff their canonical forms are equal.
	Canon string
	// Hash is the 64-bit FNV-1a hash of Canon, the stable display
	// identifier (ID) that checkpoints and shard states carry too.
	Hash uint64
	// Episodes lists the member episodes in encounter order (session
	// order within a session, sessions in input order). Only the
	// engine's Classify keeps them; a Builder fed by the engine's fold
	// keeps the tallies below and no episode.
	Episodes []EpisodeRef
	// Descendants and Depth describe the fingerprinted structure (GC
	// intervals excluded): the number of descendants of the dispatch
	// interval and the height of the tree. Table III reports their
	// averages over patterns.
	Descendants int
	Depth       int

	// The member tallies: episodes, those perceptible at the set's
	// threshold, those holding a GC interval, and their lag. All are
	// integers, so merging tallies in any order gives the same pattern.
	count, perceptible, gc int
	minLag, maxLag, total  trace.Dur
}

// Count returns the number of member episodes.
func (p *Pattern) Count() int { return p.count }

// MinLag, AvgLag, MaxLag, and TotalLag are the lag statistics the
// pattern browser shows per pattern. AvgLag is TotalLag over Count,
// truncated to the nanosecond.
func (p *Pattern) MinLag() trace.Dur   { return p.minLag }
func (p *Pattern) MaxLag() trace.Dur   { return p.maxLag }
func (p *Pattern) TotalLag() trace.Dur { return p.total }
func (p *Pattern) AvgLag() trace.Dur {
	if p.count == 0 {
		return 0
	}
	return p.total / trace.Dur(p.count)
}

// PerceptibleCount returns how many member episodes meet the
// threshold of the set the pattern belongs to (Set.Threshold).
func (p *Pattern) PerceptibleCount() int { return p.perceptible }

// Occurrence classifies the pattern per Section IV-B at its set's
// threshold: never (no perceptible episode), always (all perceptible,
// including perceptible singletons), once (exactly one of several),
// sometimes (the rest).
func (p *Pattern) Occurrence() Occurrence {
	k, n := p.perceptible, p.count
	switch {
	case k == 0:
		return OccNever
	case k == n:
		return OccAlways
	case k == 1:
		return OccOnce
	default:
		return OccSometimes
	}
}

// GCCount returns how many member episodes contain at least one GC
// interval. Because fingerprints exclude GC nodes, a pattern mixes
// episodes with and without collections; this is the measure behind
// the paper's §II-D guidance — "a developer can determine whether a
// given equivalence class always or rarely contains GC intervals. If
// it always contains GC intervals, then the developer may want to
// investigate the cause of the GC."
func (p *Pattern) GCCount() int { return p.gc }

// GCFrac returns GCCount as a fraction of the pattern's episodes.
func (p *Pattern) GCFrac() float64 {
	if p.count == 0 {
		return 0
	}
	return float64(p.gc) / float64(p.count)
}

// Singleton reports whether the pattern has exactly one episode.
// Table III's "One-Ep" column is the fraction of singleton patterns.
func (p *Pattern) Singleton() bool { return p.count == 1 }

// First returns the pattern's first episode (the browser shows its
// sketch when the pattern is selected).
func (p *Pattern) First() EpisodeRef { return p.Episodes[0] }

// ID returns a short stable identifier derived from the hash, used in
// browser displays and file names.
func (p *Pattern) ID() string { return fmt.Sprintf("p%012x", p.Hash&0xffffffffffff) }

// Set is the result of classifying a group of sessions.
type Set struct {
	// Patterns holds the equivalence classes, ordered by descending
	// episode count, ties broken by canonical form (deterministic).
	Patterns []*Pattern
	// Unstructured counts the episodes excluded from classification
	// because their dispatch interval has no non-GC children.
	Unstructured int
	// Threshold is the perceptibility threshold the set was built at,
	// the one behind every PerceptibleCount and Occurrence.
	Threshold trace.Dur
}

// Canon is the one writer of the canonical form: it accumulates the
// bytes as they are emitted, in a buffer reused across episodes. The
// engine's walk emits through it.
type Canon struct {
	buf []byte
}

// Reset starts a new canonical form.
func (c *Canon) Reset() { c.buf = c.buf[:0] }

// Node emits iv's label: its kind, then [class.method] unless both
// names are empty.
func (c *Canon) Node(iv *trace.Interval) {
	c.buf = append(c.buf, iv.Kind.String()...)
	if iv.Class != "" || iv.Method != "" {
		c.buf = append(c.buf, '[')
		c.buf = append(c.buf, iv.Class...)
		c.buf = append(c.buf, '.')
		c.buf = append(c.buf, iv.Method...)
		c.buf = append(c.buf, ']')
	}
}

// Byte emits one structural byte: '(' before the first retained
// child, ',' between children, ')' after the last.
func (c *Canon) Byte(b byte) { c.buf = append(c.buf, b) }

// Print returns the form emitted since Reset with the structure's
// metrics; its Canon aliases the buffer until the next Reset.
func (c *Canon) Print(descs, depth int, gc bool) Print {
	return Print{Canon: c.buf, Descendants: descs, Depth: depth, GC: gc}
}

// Print is the result of fingerprinting one episode. Canon aliases the
// emitting buffer and is only valid until the next fingerprint;
// Builder.Add copies it when (and only when) the pattern is new.
type Print struct {
	Canon       []byte
	Descendants int
	Depth       int
	// GC reports whether the episode's tree holds a GC interval,
	// fingerprinted or not (Pattern.GCCount).
	GC bool
}

// fnv64a is the 64-bit FNV-1a hash of a canonical form: Pattern.Hash,
// computed once, when a pattern is born.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// Builder accumulates episodes with precomputed fingerprints into
// patterns, keeping per-pattern tallies rather than the episodes. It
// is the backend of the engine's Classify and of its per-app fold:
// patterns are keyed by their canonical form (an episode's form is
// materialized, and hashed, only when its pattern is new), and
// builders merge in any order and shape to the same finished Set.
type Builder struct {
	threshold    trace.Dur
	byCanon      map[string]*Pattern
	unstructured int
}

// NewBuilder returns an empty Builder that tallies perceptible episodes
// at threshold; 0 means trace.DefaultPerceptibleThreshold.
func NewBuilder(threshold trace.Dur) *Builder {
	if threshold == 0 {
		threshold = trace.DefaultPerceptibleThreshold
	}
	return &Builder{threshold: threshold, byCanon: make(map[string]*Pattern)}
}

// Add folds one structured episode of duration dur into the builder
// and returns its pattern. pr.Canon may alias a reusable buffer; it is
// copied only when the pattern is new (the string(pr.Canon) index does
// not allocate).
func (b *Builder) Add(pr Print, dur trace.Dur) *Pattern {
	p := b.byCanon[string(pr.Canon)]
	if p == nil {
		canon := string(pr.Canon)
		p = &Pattern{
			Canon:       canon,
			Hash:        fnv64a(canon),
			Descendants: pr.Descendants,
			Depth:       pr.Depth,
			minLag:      dur,
			maxLag:      dur,
		}
		b.byCanon[canon] = p
	}
	p.count++
	if dur >= b.threshold {
		p.perceptible++
	}
	if pr.GC {
		p.gc++
	}
	p.minLag = min(p.minLag, dur)
	p.maxLag = max(p.maxLag, dur)
	p.total += dur
	return p
}

// AddUnstructured counts an episode excluded from classification.
func (b *Builder) AddUnstructured() { b.unstructured++ }

// Merge folds another builder's pattern tallies and unstructured count
// into the receiver, copying each pattern it inserts, so o stays
// intact. Every tally is an integer sum, min, or max, so merges commute
// and associate. Member episodes are not merged: only the engine's
// Classify keeps them, in one builder. o's perceptible counts are
// taken as they are, so o must tally at b's threshold; callers check
// that, as StudyConfig.CheckFold does for folds.
func (b *Builder) Merge(o *Builder) {
	for _, q := range o.byCanon {
		p := b.byCanon[q.Canon]
		if p == nil {
			c := *q
			b.byCanon[c.Canon] = &c
			continue
		}
		p.count += q.count
		p.perceptible += q.perceptible
		p.gc += q.gc
		p.minLag = min(p.minLag, q.minLag)
		p.maxLag = max(p.maxLag, q.maxLag)
		p.total += q.total
	}
	b.unstructured += o.unstructured
}

// Patterns returns the builder's patterns in Finish's order; the
// builder keeps them.
func (b *Builder) Patterns() []*Pattern {
	ps := make([]*Pattern, 0, len(b.byCanon))
	for _, p := range b.byCanon {
		ps = append(ps, p)
	}
	slices.SortFunc(ps, func(p, q *Pattern) int {
		return cmp.Or(cmp.Compare(q.count, p.count), strings.Compare(p.Canon, q.Canon))
	})
	return ps
}

// Unstructured returns the number of episodes counted by
// AddUnstructured.
func (b *Builder) Unstructured() int { return b.unstructured }

// Threshold returns the threshold the builder tallies at.
func (b *Builder) Threshold() trace.Dur { return b.threshold }

// patternWire is a builder-fed pattern's tallies on the wire. Its
// Threshold repeats the builder's, so a reader that takes a pattern's
// threshold from it decodes the same tallies.
type patternWire struct {
	Canon                  string
	Hash                   uint64
	Descendants, Depth     int
	Count, Perceptible, GC int
	Threshold              trace.Dur
	MinLag, MaxLag, Total  trace.Dur
}

// builderWire is a builder on the wire. gob matches fields by name,
// so Options keeps the name and the Threshold field that checkpoint
// stores, shard states and ingest journals already hold; the other
// fields those payloads' options had were always false, so never sent.
type builderWire struct {
	Options      optionsWire
	Patterns     []patternWire
	Unstructured int
}

type optionsWire struct{ Threshold trace.Dur }

// GobEncode encodes the patterns in Finish's order with every tally,
// so that the decoded builder merges and finishes exactly as b would.
func (b *Builder) GobEncode() ([]byte, error) {
	ps := b.Patterns()
	w := builderWire{Options: optionsWire{b.threshold}, Patterns: make([]patternWire, len(ps)), Unstructured: b.unstructured}
	for i, p := range ps {
		w.Patterns[i] = patternWire{p.Canon, p.Hash, p.Descendants, p.Depth, p.count, p.perceptible, p.gc, b.threshold, p.minLag, p.maxLag, p.total}
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(w)
	return buf.Bytes(), err
}

// GobDecode decodes a builder GobEncode encoded.
func (b *Builder) GobDecode(data []byte) error {
	var w builderWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	*b = *NewBuilder(w.Options.Threshold)
	b.unstructured = w.Unstructured
	for _, q := range w.Patterns {
		b.byCanon[q.Canon] = &Pattern{Canon: q.Canon, Hash: q.Hash, Descendants: q.Descendants, Depth: q.Depth,
			count: q.Count, perceptible: q.Perceptible, gc: q.GC,
			minLag: q.MinLag, maxLag: q.MaxLag, total: q.Total}
	}
	return nil
}

// Finish returns the Set with the patterns sorted by descending episode
// count, ties broken by canonical form, which no two patterns share, so
// the order does not depend on the order episodes or builders were
// folded in. The builder must not be used afterwards.
func (b *Builder) Finish() *Set {
	set := &Set{
		Threshold:    b.threshold,
		Patterns:     b.Patterns(),
		Unstructured: b.unstructured,
	}
	mPatternsUnique.Add(int64(len(set.Patterns)))
	mEpisodesDeduped.Add(int64(set.Covered() - len(set.Patterns)))
	mUnstructured.Add(int64(set.Unstructured))
	return set
}

// Covered returns the total number of episodes covered by patterns
// (Table III's "#Eps").
func (s *Set) Covered() int {
	n := 0
	for _, p := range s.Patterns {
		n += p.count
	}
	return n
}

// SingletonFrac returns the fraction of patterns with exactly one
// episode (Table III's "One-Ep").
func (s *Set) SingletonFrac() float64 {
	if len(s.Patterns) == 0 {
		return 0
	}
	n := 0
	for _, p := range s.Patterns {
		if p.Singleton() {
			n++
		}
	}
	return float64(n) / float64(len(s.Patterns))
}

// OccurrenceCounts tallies patterns per occurrence class at the set's
// threshold (the per-application bars of Figure 4).
func (s *Set) OccurrenceCounts() map[Occurrence]int {
	counts := make(map[Occurrence]int, numOccurrences)
	for _, p := range s.Patterns {
		counts[p.Occurrence()]++
	}
	return counts
}

// CDF returns the cumulative distribution of episodes into patterns
// (Figure 3): x is the fraction of patterns (largest first), y the
// fraction of covered episodes they hold.
func (s *Set) CDF() []stats.CDFPoint {
	weights := make([]float64, len(s.Patterns))
	for i, p := range s.Patterns {
		weights[i] = float64(p.count)
	}
	return stats.CumulativeShare(weights)
}

// MeanDescendants and MeanDepth average the structural metrics over
// patterns (Table III's "Descs" and "Depth" columns).
func (s *Set) MeanDescendants() float64 {
	if len(s.Patterns) == 0 {
		return 0
	}
	t := 0
	for _, p := range s.Patterns {
		t += p.Descendants
	}
	return float64(t) / float64(len(s.Patterns))
}

// MeanDepth averages pattern tree depth; see MeanDescendants.
func (s *Set) MeanDepth() float64 {
	if len(s.Patterns) == 0 {
		return 0
	}
	t := 0
	for _, p := range s.Patterns {
		t += p.Depth
	}
	return float64(t) / float64(len(s.Patterns))
}

// Perceptible returns the patterns that have at least one perceptible
// episode — the browser's "elide never-perceptible patterns" filter.
func (s *Set) Perceptible() []*Pattern {
	var out []*Pattern
	for _, p := range s.Patterns {
		if p.perceptible > 0 {
			out = append(out, p)
		}
	}
	return out
}
