// Package heavychild maintains a heavy-child decomposition of the dynamic
// tree (Section 5.3, Theorem 5.4): every internal node v keeps a pointer
// µ(v) to one child (its heavy child) such that every node has O(log n)
// light ancestors at all times.
//
// The construction runs the subtree estimator with β = √3. Whenever a
// node's super-weight estimate ω̃(v) changes, it informs its parent (one
// message); the parent points µ at the child with the largest estimate.
// Then for any other child u, SW(u) ≤ β²·SW(µ(v)) ≤ β²(SW(v) − SW(u)),
// giving SW(u) ≤ (3/4)·SW(v), so light edges shrink super-weights
// geometrically and each node has O(log₄⁄₃ n) light ancestors.
package heavychild

import (
	"fmt"
	"math"

	"dynctrl/internal/controller"
	"dynctrl/internal/estimator"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// Decomposition maintains the heavy-child pointers.
type Decomposition struct {
	tr    *tree.Tree
	tp    controller.Transport
	est   *estimator.Estimator
	heavy map[tree.NodeID]tree.NodeID
}

// New builds a heavy-child decomposition over tr, its estimator running
// over tp. All topological changes must flow through Submit.
func New(tr *tree.Tree, tp controller.Transport) (*Decomposition, error) {
	est, err := estimator.New(tr, tp, math.Sqrt(3), estimator.WithSubtreeEstimates())
	if err != nil {
		return nil, err
	}
	d := &Decomposition{
		tr:    tr,
		tp:    tp,
		est:   est,
		heavy: make(map[tree.NodeID]tree.NodeID),
	}
	d.refreshAll()
	return d, nil
}

// Counters returns the protocol's cost counters, the estimator's: the
// pointer refreshes are charged there too.
func (d *Decomposition) Counters() *stats.Counters { return d.est.Counters() }

// Tree returns the tree the decomposition is maintained over.
func (d *Decomposition) Tree() *tree.Tree { return d.tr }

// Estimator returns the underlying subtree estimator.
func (d *Decomposition) Estimator() *estimator.Estimator { return d.est }

// Heavy returns µ(v), the heavy child of an internal node.
func (d *Decomposition) Heavy(v tree.NodeID) (tree.NodeID, error) {
	h, ok := d.heavy[v]
	if !ok {
		return tree.InvalidNode, fmt.Errorf("heavychild: no pointer at %d", v)
	}
	return h, nil
}

// isLight reports whether v is a light child of its parent (or the root,
// which is neither).
func (d *Decomposition) isLight(v tree.NodeID) (bool, error) {
	p, err := d.tr.Parent(v)
	if err != nil {
		return false, err
	}
	if p == tree.InvalidNode {
		return false, nil
	}
	return d.heavy[p] != v, nil
}

// LightAncestors counts the light ancestors of v in the current tree.
func (d *Decomposition) LightAncestors(v tree.NodeID) (int, error) {
	path, err := d.tr.PathToRoot(v)
	if err != nil {
		return 0, err
	}
	count := 0
	for _, id := range path {
		light, err := d.isLight(id)
		if err != nil {
			return 0, err
		}
		if light {
			count++
		}
	}
	return count, nil
}

// Submit requests a topological change, then refreshes the pointers along
// the affected path (each estimate update costs one message to the parent,
// which at most doubles the protocol's message count, as the paper notes).
func (d *Decomposition) Submit(req controller.Request) (controller.Grant, error) {
	iterBefore := d.est.Iteration()
	g, err := d.est.Submit(req)
	if err != nil {
		return g, err
	}
	if d.est.Iteration() != iterBefore {
		// New iteration: ω₀ was recomputed everywhere.
		d.refreshAll()
		return g, nil
	}
	if g.Outcome == controller.Granted && req.Kind != tree.None {
		// Estimates changed along the request path; refresh pointers on
		// the path from the touched node to the root.
		touch := req.Node
		if g.NewNode != tree.InvalidNode {
			touch = g.NewNode
		}
		if !d.tr.Contains(touch) {
			// After a removal the removed node is gone; refresh at the
			// root instead (conservative, costs nothing extra
			// asymptotically).
			touch = d.tr.Root()
		}
		path, err := d.tr.PathToRoot(touch)
		if err != nil {
			return g, err
		}
		for _, id := range path {
			d.refresh(id)
		}
		d.est.Counters().Add(d.tp.Counter, int64(len(path)))
	}
	return g, nil
}

// refreshAll recomputes every pointer from current subtree estimates.
func (d *Decomposition) refreshAll() {
	d.heavy = make(map[tree.NodeID]tree.NodeID, d.tr.Size())
	for _, id := range d.tr.Nodes() {
		d.refresh(id)
	}
}

// refresh points µ(v) at the child with the largest super-weight estimate.
func (d *Decomposition) refresh(v tree.NodeID) {
	kids, err := d.tr.Children(v)
	if err != nil || len(kids) == 0 {
		delete(d.heavy, v)
		return
	}
	var best tree.NodeID
	bestW := int64(-1)
	for _, k := range kids {
		w, err := d.est.SubtreeEstimate(k)
		if err != nil {
			continue
		}
		if w > bestW {
			best, bestW = k, w
		}
	}
	if best != tree.InvalidNode {
		d.heavy[v] = best
	}
}
