package sim

import (
	"math/rand/v2"

	"lagalyzer/internal/trace"
)

// Synthetic call-stack construction. Samples are leaf-first; a
// GUI-thread stack consists of a state-specific leaf, the open
// intervals' frames (deepest first), and the event-dispatch base
// frames every EDT stack bottoms out in.

var edtBaseFrames = []trace.Frame{
	{Class: "java.awt.EventQueue", Method: "dispatchEvent"},
	{Class: "java.awt.EventDispatchThread", Method: "pumpOneEventForFilters"},
	{Class: "java.awt.EventDispatchThread", Method: "run"},
}

var idleGUIStack = []trace.Frame{
	{Class: "java.lang.Object", Method: "wait", Native: true},
	{Class: "java.awt.EventQueue", Method: "getNextEvent"},
	{Class: "java.awt.EventDispatchThread", Method: "pumpOneEventForFilters"},
	{Class: "java.awt.EventDispatchThread", Method: "run"},
}

var sleepLeaf = trace.Frame{Class: "java.lang.Thread", Method: "sleep", Native: true}
var waitLeaf = trace.Frame{Class: "java.lang.Object", Method: "wait", Native: true}

// libraryLeaves is the pool of runtime-library methods synthetic
// runnable samples land in.
var libraryLeaves = []trace.Frame{
	{Class: "javax.swing.JComponent", Method: "paintComponent"},
	{Class: "javax.swing.RepaintManager", Method: "paintDirtyRegions"},
	{Class: "javax.swing.plaf.basic.BasicGraphicsUtils", Method: "drawString"},
	{Class: "java.util.HashMap", Method: "get"},
	{Class: "java.lang.String", Method: "indexOf"},
	{Class: "java.lang.StringBuilder", Method: "append"},
	{Class: "sun.java2d.SunGraphics2D", Method: "drawLine"},
	{Class: "sun.font.GlyphLayout", Method: "layout"},
	{Class: "java.awt.Container", Method: "doLayout"},
	{Class: "java.util.Arrays", Method: "sort"},
}

// appLeafMethods is the pool of application-code method names;
// classes are prefixed with the profile's AppPackage.
var appLeafMethods = []struct{ Class, Method string }{
	{"Model", "update"},
	{"View", "render"},
	{"Controller", "handle"},
	{"Document", "parse"},
	{"Layout", "compute"},
	{"Editor", "applyEdit"},
	{"Index", "lookup"},
	{"Shape", "contains"},
}

// defaultWorkerStack is the sampled stack of a runnable background
// thread that does not declare its own.
func defaultWorkerStack(appPackage string) []trace.Frame {
	return []trace.Frame{
		{Class: appPackage + ".Worker", Method: "process"},
		{Class: appPackage + ".Worker", Method: "run"},
		{Class: "java.lang.Thread", Method: "run"},
	}
}

var parkedWorkerStack = []trace.Frame{
	{Class: "java.util.concurrent.locks.LockSupport", Method: "park", Native: true},
	{Class: "java.util.concurrent.LinkedBlockingQueue", Method: "take"},
	{Class: "java.lang.Thread", Method: "run"},
}

// stackCtx is one open interval on the executor's shadow stack.
type stackCtx struct {
	node    *Node // nil for the dispatch interval
	frame   trace.Frame
	extra   []trace.Frame
	libFrac float64 // effective library fraction for runnable leaves
	path    int32   // guiPath id; 0 until a tick resolves it
}

// leafFrames returns the library leaf pool followed by the application
// pool resolved against a concrete AppPackage, once per simulation, so
// per-sample leaf synthesis is a table lookup rather than a string
// concatenation.
func leafFrames(appPackage string) []trace.Frame {
	fs := append([]trace.Frame(nil), libraryLeaves...)
	for _, m := range appLeafMethods {
		fs = append(fs, trace.Frame{Class: appPackage + "." + m.Class, Method: m.Method})
	}
	return fs
}

// buildGUIStack synthesizes the GUI thread's sampled stack for the
// given state with the given open-interval contexts (outermost first,
// at least one), appending the frames to dst. leaf is the synthesized
// leaf, used where drawsLeaf says the stack has one. The caller owns
// dst and copies the result out before reusing it.
func buildGUIStack(dst []trace.Frame, state trace.ThreadState, ctxs []stackCtx, leaf trace.Frame) []trace.Frame {
	top := ctxs[len(ctxs)-1]

	switch state {
	case trace.StateSleeping:
		dst = append(dst, sleepLeaf)
		dst = append(dst, top.extra...)
	case trace.StateWaiting:
		dst = append(dst, waitLeaf)
		dst = append(dst, top.extra...)
	case trace.StateBlocked:
		// Blocked entering a monitor: the leaf is the Java frame
		// attempting the entry — the node's context frame when it
		// declares one, a synthesized frame otherwise.
		if len(top.extra) > 0 {
			dst = append(dst, top.extra...)
		} else {
			dst = append(dst, leaf)
		}
	default: // runnable
		if top.frame.Native {
			// Executing native code: the native frame itself leads.
		} else {
			// The executing method leads; context frames follow.
			dst = append(dst, leaf)
			dst = append(dst, top.extra...)
		}
	}

	for i := len(ctxs) - 1; i >= 0; i-- {
		dst = append(dst, ctxs[i].frame)
	}
	return append(dst, edtBaseFrames...)
}

// drawsLeaf reports whether buildGUIStack synthesizes the leaf of a
// sample in state under the open interval top: when blocked without
// context frames, or runnable in a non-native frame.
func drawsLeaf(state trace.ThreadState, top *stackCtx) bool {
	switch state {
	case trace.StateBlocked:
		return len(top.extra) == 0
	case trace.StateRunnable:
		return !top.frame.Native
	}
	return false
}

// pickLeaf draws an index into leafFrames' n leaves: a library leaf
// with probability libFrac, an application leaf otherwise.
func pickLeaf(r *rand.Rand, libFrac float64, n int) int {
	if r.Float64() < libFrac {
		return r.IntN(len(libraryLeaves))
	}
	return len(libraryLeaves) + r.IntN(n-len(libraryLeaves))
}

// guiPath is one distinct chain of open intervals, resolved from its
// parent path, the interval's Node and its class: everything else a
// stackCtx holds follows from the Node. It caches the canonical GUI
// stacks sampled under it, so a tick that repeats a stack neither
// builds nor hashes it.
type guiPath struct {
	children []pathChild
	// stacks holds the canonical stacks by state, then by leaf index
	// (one slot when the state draws no leaf), allocated on first use.
	stacks [trace.StateSleeping + 1][][]trace.Frame
}

// pathChild is one resolved child path of a guiPath.
type pathChild struct {
	node  *Node
	class string
	id    int32
}

// childPath returns the id of parent's child path for (n, class),
// adding it on first sight. Path 0 is the root every dispatch
// interval's path hangs from.
func (s *simulation) childPath(parent int32, n *Node, class string) int32 {
	for _, c := range s.paths[parent].children {
		if c.node == n && c.class == class {
			return c.id
		}
	}
	id := int32(len(s.paths))
	s.paths = append(s.paths, guiPath{})
	s.paths[parent].children = append(s.paths[parent].children, pathChild{n, class, id})
	return id
}

// pathOf resolves the path id of the open interval s.edtStack[i], and
// of those under it, at the first tick that needs it.
func (s *simulation) pathOf(i int) int32 {
	if i < 0 {
		return 0
	}
	c := &s.edtStack[i]
	if c.path == 0 {
		c.path = s.childPath(s.pathOf(i-1), c.node, c.frame.Class)
	}
	return c.path
}

// guiStack returns the canonical GUI stack of a tick in state with at
// least one interval open. The leaf is drawn before the lookup, so the
// PRNG sees the same draws whether or not the stack is cached; the
// stack is built and canonicalized only the first time its path,
// state and leaf come up.
func (s *simulation) guiStack(state trace.ThreadState) []trace.Frame {
	top := &s.edtStack[len(s.edtStack)-1]
	leaf, slots := 0, 1
	if drawsLeaf(state, top) {
		leaf, slots = pickLeaf(s.r, top.libFrac, len(s.leaves)), len(s.leaves)
	}
	p := &s.paths[s.pathOf(len(s.edtStack)-1)]
	if p.stacks[state] == nil {
		p.stacks[state] = make([][]trace.Frame, slots)
	}
	if st := p.stacks[state][leaf]; st != nil {
		return st
	}
	s.tickBuf = buildGUIStack(s.tickBuf[:0], state, s.edtStack, s.leaves[leaf])
	st := s.stacks.Canon(s.tickBuf)
	p.stacks[state][leaf] = st
	return st
}
