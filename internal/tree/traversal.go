package tree

import (
	"fmt"
	"iter"
	"slices"
)

// Intervals is the tree's one preorder walk. It returns, for every live
// node v, the closed interval [pre, last] of the preorder numbers v's
// subtree takes: pre is v's 1-based DFS number, last the largest number in
// v's subtree, so the subtree holds last-pre+1 nodes and v is an ancestor
// of u iff v's interval contains u's (the Kannan-Naor-Rudich ancestry
// encoding). Children are numbered in insertion order, so the numbers are
// deterministic for a given construction history. The walk keeps an
// explicit stack rather than recursing, so a path of any depth is one O(n)
// pass.
func (t *Tree) Intervals() map[NodeID][2]int {
	out := make(map[NodeID][2]int, t.live)
	type frame struct {
		id  NodeID
		pre int // 0 until the walk enters id
	}
	num := 0
	stack := []frame{{id: t.root}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.pre > 0 {
			out[f.id] = [2]int{f.pre, num}
			stack = stack[:len(stack)-1]
			continue
		}
		num++
		f.pre = num
		// Push children in reverse so they pop in insertion order.
		kids := t.kids(t.nodes.At(f.id))
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, frame{id: kids[i]})
		}
	}
	return out
}

// Subtree visits head and its descendants, every node before its children,
// over the stack the tree keeps, so a walk allocates nothing; an id that is
// not in the tree heads no subtree. The loop body may read the tree and must
// neither change it nor start a second walk.
func (t *Tree) Subtree(head NodeID) iter.Seq[NodeID] {
	return func(yield func(NodeID) bool) {
		if !t.Contains(head) {
			return
		}
		stack := append(t.stack[:0], head)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack = append(stack, t.kids(t.nodes.At(id))...)
			if !yield(id) {
				break
			}
		}
		t.stack = stack[:0]
	}
}

// Height returns the number of edges on the longest root-to-leaf path: the
// deepest depth that holds a live node. It reads the per-depth counts, not
// the ids, so it costs the same at any size.
func (t *Tree) Height() int {
	return len(t.atDepth) - 1
}

// Deepest returns the smallest id among the live nodes at depth Height():
// the root on a bare tree.
func (t *Tree) Deepest() NodeID {
	return NodeID(slices.Index(t.depth, int32(t.Height())))
}

// NCA returns the nearest common ancestor of u and v.
func (t *Tree) NCA(u, v NodeID) (NodeID, error) {
	w, _, err := t.nca(u, v)
	return w, err
}

// TreeDistance returns the hop distance between two arbitrary live nodes
// (through their nearest common ancestor).
func (t *Tree) TreeDistance(u, v NodeID) (int, error) {
	_, d, err := t.nca(u, v)
	return d, err
}

// nca returns the nearest common ancestor of u and v and the hop distance
// between the two through it.
func (t *Tree) nca(u, v NodeID) (NodeID, int, error) {
	if !t.Contains(u) {
		return InvalidNode, 0, fmt.Errorf("nca of %d: %w", u, ErrNoSuchNode)
	}
	if !t.Contains(v) {
		return InvalidNode, 0, fmt.Errorf("nca of %d: %w", v, ErrNoSuchNode)
	}
	du, dv := int(t.depth[u]), int(t.depth[v])
	u, v = t.ancestor(u, max(du-dv, 0)), t.ancestor(v, max(dv-du, 0))
	for u != v {
		u, v = t.parent[u], t.parent[v]
	}
	return u, du + dv - 2*int(t.depth[u]), nil
}
