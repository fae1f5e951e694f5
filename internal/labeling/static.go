// Package labeling is the generic extension of a static labeling scheme to
// the controlled dynamic model (Section 5.4): Dynamic routes every change
// through the size-estimation protocol and rebuilds the scheme whenever the
// estimate has doubled or halved since the last rebuild, so that label sizes
// track the current n rather than the largest n seen (Corollaries 5.6 and
// 5.7). The scheme it is run with is the Kannan-Naor-Rudich ancestry
// scheme, whose interval labels stay correct under deletions of leaves and
// internal nodes alike.
package labeling

import (
	"math/bits"

	"dynctrl/internal/tree"
)

// ancestryLabel is the KNR interval label: v is an ancestor of u iff
// v's interval contains u's.
type ancestryLabel struct {
	Pre  int
	Post int
}

// bits returns the label's encoding size in bits.
func (l ancestryLabel) bits() int {
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
// for surviving pairs. The tests hold its labels to the tree's own answer.
type Ancestry struct {
	labels map[tree.NodeID]ancestryLabel
}

// BuildAncestry labels the current tree; the construction costs O(n)
// messages distributively (a DFS traversal).
func BuildAncestry(tr *tree.Tree) *Ancestry {
	labels := make(map[tree.NodeID]ancestryLabel, tr.Size())
	for id, p := range tr.Intervals() {
		if p[0] > 0 {
			labels[tree.NodeID(id)] = ancestryLabel{Pre: int(p[0]), Post: int(p[1])}
		}
	}
	return &Ancestry{labels: labels}
}

// MaxBits returns the largest label size in bits.
func (a *Ancestry) MaxBits() int {
	max := 0
	for _, l := range a.labels {
		if b := l.bits(); b > max {
			max = b
		}
	}
	return max
}
