package trace

import (
	"fmt"
	"strings"
)

// Interval is one node of a thread's interval tree: an activity with a
// start and end time stamp, a kind, and — for all kinds except GC —
// the symbolic information (class and method) of the call it brackets.
//
// Children are stored in start-time order and are properly nested
// within their parent: they do not overlap each other and lie entirely
// within [Start, End]. Validate checks these invariants.
type Interval struct {
	Kind   Kind
	Class  string // fully qualified class name ("" for GC intervals)
	Method string // method name ("" for GC intervals)
	Start  Time
	End    Time
	// Major marks a GC interval as a major (full-heap) collection.
	// It is informational only; pattern classification ignores GC
	// nodes entirely.
	Major    bool
	Children []*Interval
}

// Dur returns the interval's total (inclusive) duration.
func (iv *Interval) Dur() Dur { return iv.End.Sub(iv.Start) }

// Qualified returns "Class.Method", or the kind name when the interval
// carries no symbol (GC intervals).
func (iv *Interval) Qualified() string {
	if iv.Class == "" && iv.Method == "" {
		return iv.Kind.String()
	}
	if iv.Class == "" {
		return iv.Method
	}
	return iv.Class + "." + iv.Method
}

// Contains reports whether t lies within the interval, treating the
// interval as half-open [Start, End). Zero-length intervals contain
// nothing.
func (iv *Interval) Contains(t Time) bool { return t >= iv.Start && t < iv.End }

// Walk visits the interval and its descendants in preorder (parent
// before children, children in start-time order). depth is 0 for the
// receiver. If fn returns false the subtree below the visited node is
// skipped (the walk itself continues with siblings).
func (iv *Interval) Walk(fn func(node *Interval, depth int) bool) {
	iv.walk(0, fn)
}

func (iv *Interval) walk(depth int, fn func(*Interval, int) bool) {
	if !fn(iv, depth) {
		return
	}
	for _, c := range iv.Children {
		c.walk(depth+1, fn)
	}
}

// Descendants counts the nodes strictly below the interval. The paper's
// "Descs" column in Table III is this count on dispatch intervals.
func (iv *Interval) Descendants() int {
	n := 0
	iv.Walk(func(*Interval, int) bool { n++; return true })
	return n - 1
}

// Depth returns the height of the tree rooted at the interval: 1 for a
// leaf. The paper's "Depth" column in Table III is this value on
// dispatch intervals.
func (iv *Interval) Depth() int {
	d := 0
	iv.Walk(func(_ *Interval, depth int) bool {
		if depth+1 > d {
			d = depth + 1
		}
		return true
	})
	return d
}

// At returns the deepest interval in the tree containing time t, or nil
// if t lies outside the receiver. It is the primitive behind episode
// sketch hover and sample attribution.
func (iv *Interval) At(t Time) *Interval {
	if !iv.Contains(t) {
		return nil
	}
	node := iv
descend:
	for {
		for _, c := range node.Children {
			if c.Contains(t) {
				node = c
				continue descend
			}
			if c.Start > t {
				break
			}
		}
		return node
	}
}

// Path returns the chain of intervals from the receiver down to the
// deepest interval containing t, or nil if t lies outside the receiver.
func (iv *Interval) Path(t Time) []*Interval {
	if !iv.Contains(t) {
		return nil
	}
	var path []*Interval
	node := iv
descend:
	for {
		path = append(path, node)
		for _, c := range node.Children {
			if c.Contains(t) {
				node = c
				continue descend
			}
			if c.Start > t {
				break
			}
		}
		return path
	}
}

// KindTime accumulates, for every interval kind, the exclusive time
// spent in intervals of that kind within the tree: time covered by a
// node but not by any of its children. Summed over all kinds this
// equals the root's duration. It is the accounting behind Figure 6's
// GC and native fractions.
func (iv *Interval) KindTime() [numKinds]Dur {
	var acc [numKinds]Dur
	iv.Walk(func(n *Interval, _ int) bool {
		self := n.Dur()
		for _, c := range n.Children {
			self -= c.Dur()
		}
		acc[n.Kind] += self
		return true
	})
	return acc
}

// KindTimeIn is like KindTime but restricted to the window [from, to).
// Intervals are clipped against the window before their exclusive time
// is accumulated.
func (iv *Interval) KindTimeIn(from, to Time) [numKinds]Dur {
	var acc [numKinds]Dur
	iv.Walk(func(n *Interval, _ int) bool {
		s, e := clip(n.Start, n.End, from, to)
		if e <= s {
			return false
		}
		self := e.Sub(s)
		for _, c := range n.Children {
			cs, ce := clip(c.Start, c.End, from, to)
			self -= ce.Sub(cs)
		}
		acc[n.Kind] += self
		return true
	})
	return acc
}

func clip(s, e, from, to Time) (Time, Time) {
	if s < from {
		s = from
	}
	if e > to {
		e = to
	}
	if e < s {
		e = s
	}
	return s, e
}

// Find returns the first interval in preorder for which match returns
// true, or nil.
func (iv *Interval) Find(match func(*Interval) bool) *Interval {
	var found *Interval
	iv.Walk(func(n *Interval, _ int) bool {
		if found != nil {
			return false
		}
		if match(n) {
			found = n
			return false
		}
		return true
	})
	return found
}

// FindKind returns the first interval of kind k in preorder, or nil.
func (iv *Interval) FindKind(k Kind) *Interval {
	return iv.Find(func(n *Interval) bool { return n.Kind == k })
}

// HasKind reports whether the tree contains an interval of kind k
// (including the receiver).
func (iv *Interval) HasKind(k Kind) bool { return iv.FindKind(k) != nil }

// Clone returns a deep copy of the tree. A childless node's copy has
// nil Children, whatever capacity the original's held.
func (iv *Interval) Clone() *Interval {
	cp := *iv
	cp.Children = nil
	if len(iv.Children) > 0 {
		cp.Children = make([]*Interval, len(iv.Children))
		for i, c := range iv.Children {
			cp.Children[i] = c.Clone()
		}
	}
	return &cp
}

// Validate checks the structural invariants the profiler guarantees
// (Section II-A of the paper): end ≥ start everywhere, children in
// start order, children properly nested within their parent, and
// siblings non-overlapping. It returns the first violation found.
func (iv *Interval) Validate() error {
	if !iv.Kind.Valid() {
		return fmt.Errorf("trace: invalid interval kind %d", iv.Kind)
	}
	if iv.End < iv.Start {
		return fmt.Errorf("trace: interval %s ends (%v) before it starts (%v)", iv.Qualified(), iv.End, iv.Start)
	}
	prevEnd := iv.Start
	for i, c := range iv.Children {
		if c.Start < iv.Start || c.End > iv.End {
			return fmt.Errorf("trace: child %s [%v,%v] escapes parent %s [%v,%v]",
				c.Qualified(), c.Start, c.End, iv.Qualified(), iv.Start, iv.End)
		}
		if c.Start < prevEnd {
			return fmt.Errorf("trace: child %d (%s) of %s overlaps its predecessor", i, c.Qualified(), iv.Qualified())
		}
		prevEnd = c.End
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// String renders a compact single-line summary of the root node.
func (iv *Interval) String() string {
	return fmt.Sprintf("%s %s [%v +%v]", iv.Kind, iv.Qualified(), iv.Start, iv.Dur())
}

// Outline renders the tree as an indented multi-line outline, one node
// per line with kind, symbol, and duration. It is the plain-text
// sibling of the episode sketch.
func (iv *Interval) Outline() string {
	var b strings.Builder
	iv.Walk(func(n *Interval, depth int) bool {
		fmt.Fprintf(&b, "%s%s %s (%v)\n", strings.Repeat("  ", depth), n.Kind, n.Qualified(), n.Dur())
		return true
	})
	return b.String()
}
