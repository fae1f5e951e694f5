package tree

import (
	"fmt"
	"iter"
)

// WalkDFS visits every live node in depth-first preorder starting at the
// root, calling fn with the node id and its DFS number (1-based, in visit
// order). Children are visited in insertion order, so the numbering is
// deterministic for a given construction history. If fn returns false, the
// walk stops early.
func (t *Tree) WalkDFS(fn func(id NodeID, dfsNum int) bool) {
	num := 0
	stack := []NodeID{t.root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		num++
		if !fn(id, num) {
			return
		}
		// Push children in reverse so they pop in insertion order.
		edges := t.edges(t.nodes.At(id))
		for i := len(edges) - 1; i >= 0; i-- {
			stack = append(stack, edges[i].child)
		}
	}
}

// DFSNumbers returns a map from live node id to 1-based DFS preorder number.
func (t *Tree) DFSNumbers() map[NodeID]int {
	out := make(map[NodeID]int, t.Size())
	t.WalkDFS(func(id NodeID, num int) bool {
		out[id] = num
		return true
	})
	return out
}

// Intervals returns, for every live node, the half-open DFS interval
// [pre, post] such that v is an ancestor of u iff interval(v) contains
// interval(u). pre is the 1-based preorder number; post is the largest
// preorder number in v's subtree. This is the classic Kannan-Naor-Rudich
// ancestry encoding used by the labeling application.
func (t *Tree) Intervals() map[NodeID][2]int {
	out := make(map[NodeID][2]int, t.live)
	num := 0
	var visit func(id NodeID)
	visit = func(id NodeID) {
		num++
		pre := num
		for _, e := range t.edges(t.nodes.At(id)) {
			visit(e.child)
		}
		out[id] = [2]int{pre, num}
	}
	visit(t.root)
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
			for _, e := range t.edges(t.nodes.At(id)) {
				stack = append(stack, e.child)
			}
			if !yield(id) {
				break
			}
		}
		t.stack = stack[:0]
	}
}

// SubtreeSize returns the number of live nodes in the subtree rooted at id.
func (t *Tree) SubtreeSize(id NodeID) (int, error) {
	if !t.Contains(id) {
		return 0, fmt.Errorf("subtree size of %d: %w", id, ErrNoSuchNode)
	}
	count := 0
	for range t.Subtree(id) {
		count++
	}
	return count, nil
}

// Height returns the number of edges on the longest root-to-leaf path: the
// deepest depth that holds a live node. It reads the per-depth counts, not
// the ids, so it costs the same at any size.
func (t *Tree) Height() int {
	return len(t.atDepth) - 1
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
