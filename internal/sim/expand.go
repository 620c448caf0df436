package sim

import (
	"math/rand/v2"

	"lagalyzer/internal/trace"
)

// plan is a behavior template expanded into a concrete episode: every
// structural choice (inclusion, repetition) is resolved and every node
// carries its self-time duration. The executor then plays the plan on
// the virtual timeline, where GC pauses may still stretch it.
type plan struct {
	behavior *Behavior
	// dispatchSelf is the dispatch interval's own self time.
	dispatchSelf trace.Dur
	// roots are the dispatch interval's children.
	roots []*planNode
}

type planNode struct {
	node *Node
	// class and method are the resolved symbols (Node.ClassPool picks
	// a class per expanded instance).
	class, method string
	self          trace.Dur
	// total is the node's full planned duration: self time plus all
	// descendants', summed once by assignSelf.
	total    trace.Dur
	children []*planNode
}

// planArena recycles planNode storage across episodes. A plan only
// lives for the one runEpisode call that plays it, but a session runs
// thousands of episodes; reusing the node slots — and, crucially, the
// capacity their children slices grew to — makes expansion
// allocation-free at steady state. reset reclaims everything; callers
// must not retain planNodes across episodes.
type planArena struct {
	chunks [][]planNode
	ci, ni int
	plan   plan // reusable plan header (roots capacity persists)
}

const planChunkSize = 64

func (a *planArena) reset() { a.ci, a.ni = 0, 0 }

// new hands out a recycled planNode slot with fields set, keeping the
// slot's previous children capacity.
func (a *planArena) new(n *Node, class, method string) *planNode {
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]planNode, planChunkSize))
	}
	pn := &a.chunks[a.ci][a.ni]
	if a.ni++; a.ni == planChunkSize {
		a.ci++
		a.ni = 0
	}
	pn.node = n
	pn.class = class
	pn.method = method
	pn.self, pn.total = 0, 0
	pn.children = pn.children[:0]
	return pn
}

// expand resolves a behavior template into a plan: structural choices
// are sampled, then the sampled episode duration — scaled by the
// instrumentation slowdown, when a perturbation is modeled — is split
// over the included nodes proportionally to their weights. The
// returned plan is arena-backed and valid until the next expand on the
// same arena.
func expand(b *Behavior, r *rand.Rand, slowdown float64, a *planArena) *plan {
	a.reset()
	p := &a.plan
	p.behavior = b
	p.dispatchSelf = 0
	p.roots = p.roots[:0]
	var totalWeight float64
	for i := range b.Nodes {
		expandNode(&b.Nodes[i], r, &totalWeight, a, &p.roots)
	}
	totalWeight += b.dispatchWeight()

	durMs := b.DurMs.Sample(r) * slowdown
	if durMs < 0 {
		durMs = 0
	}
	dur := trace.Ms(durMs)

	p.dispatchSelf = scaleDur(dur, b.dispatchWeight(), totalWeight)
	for _, root := range p.roots {
		assignSelf(root, dur, totalWeight)
	}
	return p
}

// expandNode resolves one template node (inclusion, repetition,
// children), appending the expanded instances to dst and accumulating
// the weights of everything included.
func expandNode(n *Node, r *rand.Rand, totalWeight *float64, a *planArena, dst *[]*planNode) {
	if pr := n.prob(); pr < 1 && r.Float64() >= pr {
		return
	}
	count := 1
	if n.Repeat != nil {
		count = n.Repeat.SampleInt(r)
	}
	for i := 0; i < count; i++ {
		class, method := n.Class, n.Method
		if len(n.ClassPool) > 0 {
			class = n.ClassPool[r.IntN(len(n.ClassPool))]
		}
		if method == "" && n.Kind == trace.KindPaint {
			method = "paint"
		}
		pn := a.new(n, class, method)
		*totalWeight += n.Weight
		for j := range n.Children {
			expandNode(&n.Children[j], r, totalWeight, a, &pn.children)
		}
		*dst = append(*dst, pn)
	}
}

// assignSelf sets the self time of pn and its descendants, and sums
// their totals in post-order.
func assignSelf(pn *planNode, dur trace.Dur, totalWeight float64) {
	pn.self = scaleDur(dur, pn.node.Weight, totalWeight)
	pn.total = pn.self
	for _, c := range pn.children {
		assignSelf(c, dur, totalWeight)
		pn.total += c.total
	}
}

func scaleDur(dur trace.Dur, weight, total float64) trace.Dur {
	if total <= 0 {
		return 0
	}
	return trace.Dur(float64(dur) * weight / total)
}
