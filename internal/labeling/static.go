// Package labeling implements the informative labeling schemes used by
// Section 5.4: static ancestry labels (the Kannan-Naor-Rudich interval
// scheme), nearest-common-ancestor labels via heavy-path decomposition,
// exact tree-distance labels via centroid (separator) decomposition, and a
// dynamic wrapper that uses the size-estimation protocol to recompute a
// static scheme when the tree's size changes by a constant factor — keeping
// label sizes proportional to the *current* n under controlled deletions
// (Corollaries 5.6 and 5.7).
package labeling

import (
	"errors"
	"fmt"
	"math/bits"

	"dynctrl/internal/tree"
)

// errNoLabel is returned when a queried node has no label (it joined after
// the last rebuild, or never existed).
var errNoLabel = errors.New("labeling: node has no label")

// AncestryLabel is the KNR interval label: v is an ancestor of u iff
// v's interval contains u's.
type AncestryLabel struct {
	Pre  int
	Post int
}

// Bits returns the label's encoding size in bits.
func (l AncestryLabel) Bits() int {
	return bitsFor(l.Pre) + bitsFor(l.Post)
}

func bitsFor(v int) int {
	if v <= 0 {
		return 1
	}
	return bits.Len(uint(v))
}

// Ancestry is a static ancestry labeling scheme over a snapshot of the
// tree. Its correctness survives deletions of both leaves and internal
// nodes (Corollary 5.7): removing nodes never breaks interval containment
// for surviving pairs.
type Ancestry struct {
	labels map[tree.NodeID]AncestryLabel
}

// BuildAncestry labels the current tree; the construction costs O(n)
// messages distributively (a DFS traversal).
func BuildAncestry(tr *tree.Tree) *Ancestry {
	labels := make(map[tree.NodeID]AncestryLabel, tr.Size())
	for id, p := range tr.Intervals() {
		if p[0] > 0 {
			labels[tree.NodeID(id)] = AncestryLabel{Pre: int(p[0]), Post: int(p[1])}
		}
	}
	return &Ancestry{labels: labels}
}

// Label returns a node's label.
func (a *Ancestry) Label(v tree.NodeID) (AncestryLabel, error) {
	l, ok := a.labels[v]
	if !ok {
		return AncestryLabel{}, fmt.Errorf("ancestry label of %d: %w", v, errNoLabel)
	}
	return l, nil
}

// isAncestor answers the ancestry query from labels alone.
func isAncestor(anc, desc AncestryLabel) bool {
	return anc.Pre <= desc.Pre && desc.Post <= anc.Post
}

// MaxBits returns the largest label size in bits.
func (a *Ancestry) MaxBits() int {
	max := 0
	for _, l := range a.labels {
		if b := l.Bits(); b > max {
			max = b
		}
	}
	return max
}

// Drop removes a deleted node's label (its pair answers remain valid).
func (a *Ancestry) Drop(v tree.NodeID) { delete(a.labels, v) }

// NCALabel identifies the heavy paths on the root-to-v path: entry i names
// the i-th heavy path's head (by preorder number) and the preorder of the
// node at which the root-to-v path leaves that heavy path. The last entry's
// exit is v itself.
type NCALabel struct {
	Entries []NCAEntry
}

// NCAEntry is one (heavy path, exit point) hop of an NCA label.
type NCAEntry struct {
	Head int // preorder of the heavy path's head
	Exit int // preorder of the last path node on the root-to-v walk
}

// Bits returns the label's encoding size in bits.
func (l NCALabel) Bits() int {
	total := 0
	for _, e := range l.Entries {
		total += bitsFor(e.Head) + bitsFor(e.Exit)
	}
	return total
}

// NCA is a static nearest-common-ancestor labeling scheme built on a
// heavy-path decomposition; labels have O(log n) entries of O(log n) bits.
type NCA struct {
	labels map[tree.NodeID]NCALabel
	byPre  []tree.NodeID // byPre[p] is the node with preorder p; byPre[0] is unused
}

// BuildNCA labels the current tree.
func BuildNCA(tr *tree.Tree) *NCA {
	iv := tr.Intervals()
	byPre := make([]tree.NodeID, tr.Size()+1)
	for id, p := range iv {
		if p[0] > 0 {
			byPre[p[0]] = tree.NodeID(id)
		}
	}
	// Path heads in preorder, a parent before its children: each node's
	// heavy child, the first child with the largest subtree, continues the
	// node's heavy path, and every other node heads a path of its own.
	head := make(map[tree.NodeID]tree.NodeID, tr.Size())
	for _, v := range byPre[1:] {
		if _, ok := head[v]; !ok {
			head[v] = v
		}
		kids, _ := tr.Children(v)
		heavy, most := tree.InvalidNode, int32(-1)
		for _, k := range kids {
			if s := iv[k][1] - iv[k][0]; s > most {
				heavy, most = k, s
			}
		}
		if heavy != tree.InvalidNode {
			head[heavy] = head[v]
		}
	}
	labels := make(map[tree.NodeID]NCALabel, tr.Size())
	for id := range tr.All() {
		var entries []NCAEntry
		cur := id
		for {
			h := head[cur]
			entries = append(entries, NCAEntry{Head: int(iv[h][0]), Exit: int(iv[cur][0])})
			p, err := tr.Parent(h)
			if err != nil || p == tree.InvalidNode {
				break
			}
			cur = p
		}
		// Reverse: root-side first.
		for i, j := 0, len(entries)-1; i < j; i, j = i+1, j-1 {
			entries[i], entries[j] = entries[j], entries[i]
		}
		labels[id] = NCALabel{Entries: entries}
	}
	return &NCA{labels: labels, byPre: byPre}
}

// Label returns a node's NCA label.
func (n *NCA) Label(v tree.NodeID) (NCALabel, error) {
	l, ok := n.labels[v]
	if !ok {
		return NCALabel{}, fmt.Errorf("nca label of %d: %w", v, errNoLabel)
	}
	return l, nil
}

// QueryNCA computes the preorder number of the nearest common ancestor of
// two labeled nodes from their labels alone.
func QueryNCA(a, b NCALabel) (int, error) {
	n := len(a.Entries)
	if len(b.Entries) < n {
		n = len(b.Entries)
	}
	last := -1
	for i := 0; i < n; i++ {
		ea, eb := a.Entries[i], b.Entries[i]
		if ea.Head != eb.Head {
			break
		}
		if ea.Exit == eb.Exit {
			last = ea.Exit
			continue
		}
		// Diverge on this heavy path: the NCA is the shallower exit.
		// On a heavy path, preorder increases with depth.
		if ea.Exit < eb.Exit {
			return ea.Exit, nil
		}
		return eb.Exit, nil
	}
	if last < 0 {
		return 0, errors.New("labeling: labels share no heavy path (different trees?)")
	}
	return last, nil
}

// NodeAt maps a preorder number back to a node id (test/verification aid;
// real deployments answer queries in preorder space).
func (n *NCA) NodeAt(pre int) (tree.NodeID, bool) {
	if pre < 1 || pre >= len(n.byPre) {
		return tree.InvalidNode, false
	}
	return n.byPre[pre], true
}

// MaxBits returns the largest NCA label size in bits.
func (n *NCA) MaxBits() int {
	max := 0
	for _, l := range n.labels {
		if b := l.Bits(); b > max {
			max = b
		}
	}
	return max
}

// DistanceLabel lists (separator, distance) pairs along the centroid
// decomposition path of the node; O(log n) entries.
type DistanceLabel struct {
	Entries []DistanceEntry
}

// DistanceEntry is one (separator id, hop distance) pair.
type DistanceEntry struct {
	Sep  tree.NodeID
	Dist int
}

// Bits returns the label's encoding size in bits.
func (l DistanceLabel) Bits() int {
	total := 0
	for _, e := range l.Entries {
		total += bitsFor(int(e.Sep)) + bitsFor(e.Dist)
	}
	return total
}

// Distance is an exact tree-distance labeling scheme built on a centroid
// decomposition. Deleting degree-one nodes does not change surviving
// distances, so the scheme's correctness survives such deletions
// (Observation 5.5).
type Distance struct {
	labels map[tree.NodeID]DistanceLabel
}

// BuildDistance labels the current tree.
func BuildDistance(tr *tree.Tree) *Distance {
	// Build an undirected adjacency snapshot.
	adj := make(map[tree.NodeID][]tree.NodeID, tr.Size())
	for _, v := range tr.Nodes() {
		kids, _ := tr.Children(v)
		adj[v] = append(adj[v], kids...)
		if p, err := tr.Parent(v); err == nil && p != tree.InvalidNode {
			adj[v] = append(adj[v], p)
		}
	}
	labels := make(map[tree.NodeID]DistanceLabel, len(adj))
	removed := make(map[tree.NodeID]bool, len(adj))

	var sizes map[tree.NodeID]int
	var calcSize func(v, p tree.NodeID) int
	calcSize = func(v, p tree.NodeID) int {
		s := 1
		for _, w := range adj[v] {
			if w != p && !removed[w] {
				s += calcSize(w, v)
			}
		}
		sizes[v] = s
		return s
	}
	var findCentroid func(v, p tree.NodeID, total int) tree.NodeID
	findCentroid = func(v, p tree.NodeID, total int) tree.NodeID {
		for _, w := range adj[v] {
			if w != p && !removed[w] && sizes[w] > total/2 {
				// sizes[w] is valid because calcSize rooted at the
				// component root visits children before parents.
				return findCentroid(w, v, total)
			}
		}
		return v
	}
	var bfsLabel func(c tree.NodeID)
	bfsLabel = func(c tree.NodeID) {
		type item struct {
			v tree.NodeID
			d int
		}
		queue := []item{{c, 0}}
		seen := map[tree.NodeID]bool{c: true}
		for len(queue) > 0 {
			it := queue[0]
			queue = queue[1:]
			l := labels[it.v]
			l.Entries = append(l.Entries, DistanceEntry{Sep: c, Dist: it.d})
			labels[it.v] = l
			for _, w := range adj[it.v] {
				if !removed[w] && !seen[w] {
					seen[w] = true
					queue = append(queue, item{w, it.d + 1})
				}
			}
		}
	}
	var decompose func(v tree.NodeID)
	decompose = func(v tree.NodeID) {
		sizes = make(map[tree.NodeID]int)
		total := calcSize(v, tree.InvalidNode)
		c := findCentroid(v, tree.InvalidNode, total)
		// Recompute sizes rooted at the centroid for the recursion.
		bfsLabel(c)
		removed[c] = true
		for _, w := range adj[c] {
			if !removed[w] {
				decompose(w)
			}
		}
	}
	decompose(tr.Root())
	return &Distance{labels: labels}
}

// Label returns a node's distance label.
func (d *Distance) Label(v tree.NodeID) (DistanceLabel, error) {
	l, ok := d.labels[v]
	if !ok {
		return DistanceLabel{}, fmt.Errorf("distance label of %d: %w", v, errNoLabel)
	}
	return l, nil
}

// QueryDistance computes the exact tree distance from two labels.
func QueryDistance(a, b DistanceLabel) (int, error) {
	bySep := make(map[tree.NodeID]int, len(b.Entries))
	for _, e := range b.Entries {
		bySep[e.Sep] = e.Dist
	}
	best := -1
	for _, e := range a.Entries {
		if d2, ok := bySep[e.Sep]; ok {
			if sum := e.Dist + d2; best < 0 || sum < best {
				best = sum
			}
		}
	}
	if best < 0 {
		return 0, errors.New("labeling: labels share no separator")
	}
	return best, nil
}

// MaxBits returns the largest distance label size in bits.
func (d *Distance) MaxBits() int {
	max := 0
	for _, l := range d.labels {
		if b := l.Bits(); b > max {
			max = b
		}
	}
	return max
}

// MaxEntries returns the deepest decomposition path length (should be
// O(log n)).
func (d *Distance) MaxEntries() int {
	max := 0
	for _, l := range d.labels {
		if len(l.Entries) > max {
			max = len(l.Entries)
		}
	}
	return max
}
