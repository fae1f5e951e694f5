package tree

import (
	"iter"
	"slices"
)

// Intervals is the tree's one preorder walk. It returns a slice indexed by
// id, one entry for every id the tree has handed out (EverExisted()+1 of
// them). The entry of a live node v is the closed interval [pre, last] of
// the preorder numbers v's subtree takes: pre is v's 1-based DFS number,
// last the largest number in v's subtree, so the subtree holds last-pre+1
// nodes and v is an ancestor of u iff v's interval contains u's (the
// Kannan-Naor-Rudich ancestry encoding). A dead id, and id 0, read [0, 0]:
// pre is 0 exactly where the id is not in the tree. The numbers are int32,
// as the per-depth counts are. Children are numbered in insertion order, so
// the numbers are deterministic for a given construction history. The walk
// keeps an explicit stack of ids rather than recursing, so a path of any
// depth is one O(n) pass; an id stays on the stack under its subtree, and
// its pre, already written, tells the walk it is leaving it.
func (t *Tree) Intervals() [][2]int32 {
	out := make([][2]int32, len(t.depth))
	var num int32
	stack := []NodeID{t.root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		iv := &out[id]
		if iv[0] > 0 {
			iv[1] = num
			stack = stack[:len(stack)-1]
			continue
		}
		num++
		iv[0] = num
		// Push children in reverse so they pop in insertion order.
		kids := t.kids(t.nodes.At(id))
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, NodeID(kids[i]))
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
		stack := append(t.stack[:0], slot(head))
		for len(stack) > 0 {
			id := NodeID(stack[len(stack)-1])
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
