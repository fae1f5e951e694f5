// Package workload generates request traces for the controller and its
// applications. Generators are stateful: they inspect the live tree to emit
// only currently-valid requests, which models the paper's online adversary
// (requests arrive at arbitrary nodes, constrained only by tree validity).
package workload

import (
	"errors"
	"math/rand"

	"dynctrl/internal/controller"
	"dynctrl/internal/tree"
)

// Generator produces the next request for the current tree state. ok is
// false when the generator cannot produce a valid request (e.g. a
// shrink-only generator on a bare root).
type Generator interface {
	Next() (req controller.Request, ok bool)
}

// Mix describes the relative weights of request kinds in a churn trace.
type Mix struct {
	AddLeaf        int
	RemoveLeaf     int
	AddInternal    int
	RemoveInternal int
	Event          int // non-topological
}

// DefaultMix is a balanced fully-dynamic churn with a drift toward growth.
func DefaultMix() Mix {
	return Mix{AddLeaf: 30, RemoveLeaf: 20, AddInternal: 15, RemoveInternal: 10, Event: 25}
}

// GrowOnlyMix allows only leaf insertions (the dynamic model of Afek,
// Awerbuch, Plotkin and Saks).
func GrowOnlyMix() Mix { return Mix{AddLeaf: 100} }

// ShrinkHeavyMix drifts toward deletions.
func ShrinkHeavyMix() Mix {
	return Mix{AddLeaf: 15, RemoveLeaf: 35, AddInternal: 5, RemoveInternal: 25, Event: 20}
}

// EventOnlyMix issues only non-topological events (ticket sales etc.).
func EventOnlyMix() Mix { return Mix{Event: 100} }

func (m Mix) total() int {
	return m.AddLeaf + m.RemoveLeaf + m.AddInternal + m.RemoveInternal + m.Event
}

// Churn draws requests at uniformly random valid locations according to a
// Mix. MinSize guards the tree against shrinking below a floor (removals
// are re-drawn as additions when at the floor).
type Churn struct {
	tr      *tree.Tree
	rng     *rand.Rand
	mix     Mix
	minSize int

	// nodes caches tr.Nodes() as of tree generation nodesAt: picking a
	// random node indexes into it, and listing the tree again for every
	// request is an O(n) scan and allocation a static tree never needs.
	nodes   []tree.NodeID
	nodesAt uint64
}

// NewChurn builds a churn generator over tr.
func NewChurn(tr *tree.Tree, mix Mix, seed int64) *Churn {
	return &Churn{tr: tr, rng: rand.New(rand.NewSource(seed)), mix: mix, minSize: 1}
}

// SetMinSize sets the size floor below which removals are suppressed.
func (c *Churn) SetMinSize(n int) { c.minSize = n }

// Next implements Generator. It always succeeds for mixes that include
// additions or events.
func (c *Churn) Next() (controller.Request, bool) {
	total := c.mix.total()
	if total <= 0 {
		return controller.Request{}, false
	}
	for attempt := 0; attempt < 64; attempt++ {
		roll := c.rng.Intn(total)
		switch {
		case roll < c.mix.AddLeaf:
			if req, ok := c.addLeaf(); ok {
				return req, true
			}
		case roll < c.mix.AddLeaf+c.mix.RemoveLeaf:
			if req, ok := c.removeLeaf(); ok {
				return req, true
			}
		case roll < c.mix.AddLeaf+c.mix.RemoveLeaf+c.mix.AddInternal:
			if req, ok := c.addInternal(); ok {
				return req, true
			}
		case roll < c.mix.AddLeaf+c.mix.RemoveLeaf+c.mix.AddInternal+c.mix.RemoveInternal:
			if req, ok := c.removeInternal(); ok {
				return req, true
			}
		default:
			if req, ok := c.event(); ok {
				return req, true
			}
		}
	}
	return controller.Request{}, false
}

func (c *Churn) randomNode() (tree.NodeID, bool) {
	if at := c.tr.Generation(); c.nodes == nil || at != c.nodesAt {
		c.nodes, c.nodesAt = c.tr.Nodes(), at
	}
	if len(c.nodes) == 0 {
		return tree.InvalidNode, false
	}
	return c.nodes[c.rng.Intn(len(c.nodes))], true
}

func (c *Churn) addLeaf() (controller.Request, bool) {
	parent, ok := c.randomNode()
	if !ok {
		return controller.Request{}, false
	}
	return controller.Request{Node: parent, Kind: tree.AddLeaf}, true
}

func (c *Churn) removeLeaf() (controller.Request, bool) {
	if c.tr.Size() <= c.minSize {
		return controller.Request{}, false
	}
	leaves := c.tr.Leaves()
	root := c.tr.Root()
	for attempt := 0; attempt < 8 && len(leaves) > 0; attempt++ {
		id := leaves[c.rng.Intn(len(leaves))]
		if id != root {
			return controller.Request{Node: id, Kind: tree.RemoveLeaf}, true
		}
	}
	return controller.Request{}, false
}

func (c *Churn) addInternal() (controller.Request, bool) {
	// Pick a random non-root node; split the edge to its parent.
	root := c.tr.Root()
	for attempt := 0; attempt < 8; attempt++ {
		child, ok := c.randomNode()
		if !ok {
			return controller.Request{}, false
		}
		if child == root {
			continue
		}
		parent, err := c.tr.Parent(child)
		if err != nil {
			continue
		}
		return controller.Request{Node: parent, Kind: tree.AddInternal, Child: child}, true
	}
	return controller.Request{}, false
}

func (c *Churn) removeInternal() (controller.Request, bool) {
	if c.tr.Size() <= c.minSize {
		return controller.Request{}, false
	}
	root := c.tr.Root()
	for attempt := 0; attempt < 8; attempt++ {
		id, ok := c.randomNode()
		if !ok {
			return controller.Request{}, false
		}
		if id == root || c.tr.IsLeaf(id) {
			continue
		}
		return controller.Request{Node: id, Kind: tree.RemoveInternal}, true
	}
	return controller.Request{}, false
}

func (c *Churn) event() (controller.Request, bool) {
	id, ok := c.randomNode()
	if !ok {
		return controller.Request{}, false
	}
	return controller.Request{Node: id, Kind: tree.None}, true
}

// DeepPath grows the tree as a single path: every request adds a leaf under
// the current deepest node. It stresses the distance-dependent parts of the
// controller (filler search, package drop points).
type DeepPath struct {
	tr      *tree.Tree
	deepest tree.NodeID
}

// NewDeepPath builds a deep-path generator rooted at tr's root.
func NewDeepPath(tr *tree.Tree) *DeepPath {
	dp := &DeepPath{tr: tr, deepest: tr.Root()}
	// Resume from the current deepest node if the tree is not bare.
	best, bestD := tr.Root(), 0
	for _, id := range tr.Nodes() {
		if d, err := tr.Depth(id); err == nil && d > bestD {
			best, bestD = id, d
		}
	}
	dp.deepest = best
	return dp
}

// Next implements Generator.
func (d *DeepPath) Next() (controller.Request, bool) {
	if !d.tr.Contains(d.deepest) {
		d.deepest = d.tr.Root()
	}
	return controller.Request{Node: d.deepest, Kind: tree.AddLeaf}, true
}

// Observe must be called with each grant so the generator tracks the path
// tip.
func (d *DeepPath) Observe(g controller.Grant) {
	if g.Outcome == controller.Granted && g.NewNode != tree.InvalidNode {
		d.deepest = g.NewNode
	}
}

// Hotspot concentrates requests in the subtree of a pivot node: a fraction
// hotPct of requests target descendants of the pivot (approximated by
// re-rooting the random choice at the pivot).
type Hotspot struct {
	churn  *Churn
	tr     *tree.Tree
	rng    *rand.Rand
	pivot  tree.NodeID
	hotPct int
}

// NewHotspot builds a hotspot generator; pivot's subtree receives hotPct
// percent of the event requests.
func NewHotspot(tr *tree.Tree, pivot tree.NodeID, hotPct int, seed int64) *Hotspot {
	return &Hotspot{
		churn:  NewChurn(tr, DefaultMix(), seed),
		tr:     tr,
		rng:    rand.New(rand.NewSource(seed + 1)),
		pivot:  pivot,
		hotPct: hotPct,
	}
}

// Next implements Generator.
func (h *Hotspot) Next() (controller.Request, bool) {
	if h.tr.Contains(h.pivot) && h.rng.Intn(100) < h.hotPct {
		return controller.Request{Node: h.pivot, Kind: tree.AddLeaf}, true
	}
	return h.churn.Next()
}

// Result summarizes a driven trace.
type Result struct {
	Granted    int
	Rejected   int
	Terminated bool
	Submitted  int
}

// Run drives n requests from gen into sub, observing grants back into
// generators that need them (DeepPath). It stops early when the submitter
// terminates (terminating controllers) or the generator runs dry.
func Run(sub controller.Submitter, gen Generator, n int) (Result, error) {
	var res Result
	for i := 0; i < n; i++ {
		req, ok := gen.Next()
		if !ok {
			return res, nil
		}
		res.Submitted++
		g, err := sub.Submit(req)
		if errors.Is(err, controller.ErrTerminated) {
			res.Terminated = true
			return res, nil
		}
		if err != nil {
			return res, err
		}
		switch g.Outcome {
		case controller.Granted:
			res.Granted++
		case controller.Rejected:
			res.Rejected++
		}
		if dp, ok := gen.(*DeepPath); ok {
			dp.Observe(g)
		}
	}
	return res, nil
}
