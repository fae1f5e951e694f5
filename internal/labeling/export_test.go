package labeling

import (
	"fmt"

	"dynctrl/internal/tree"
)

// AncestryLabel, Label and IsAncestor are a node's label, its lookup and
// the query on two labels, for the external tests.
type AncestryLabel = ancestryLabel

func (a *Ancestry) Label(v tree.NodeID) (AncestryLabel, error) {
	l, ok := a.labels[v]
	if !ok {
		return AncestryLabel{}, fmt.Errorf("labeling: node %d has no ancestry label", v)
	}
	return l, nil
}

func IsAncestor(anc, desc AncestryLabel) bool {
	return anc.Pre <= desc.Pre && desc.Post <= anc.Post
}
