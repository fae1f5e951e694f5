package tree

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Shape names an initial tree. In the controlled model the controller starts
// from an initial tree and every later change is a request it grants; Build
// is how that tree comes about, and Signature is what the two ends of a wire
// connection compare to know they built the same one.
type Shape struct {
	// Kind is "balanced" (uniformly random attachment), "path", or "star";
	// empty means "balanced".
	Kind string `json:"kind"`
	// Nodes is the initial tree size; below 1 it is the bare root.
	Nodes int `json:"nodes"`
}

// Build grows tr, assumed bare, into sh by applying leaf additions directly,
// with no controller involved. Ids are handed out in allocation order and a
// balanced shape draws its parents from its own source seeded with seed, so
// the same (Shape, seed) builds the same tree, ids, parents and ports alike.
func Build(tr *Tree, sh Shape, seed int64) error {
	switch sh.Kind {
	case "", "balanced": // each new leaf under a uniformly random node
		rng := rand.New(rand.NewSource(seed))
		nodes := tr.Nodes()
		for tr.Size() < sh.Nodes {
			id, err := tr.ApplyAddLeaf(nodes[rng.Intn(len(nodes))])
			if err != nil {
				return err
			}
			nodes = append(nodes, id)
		}
	case "path": // each new leaf under the last
		for tip := tr.root; tr.Size() < sh.Nodes; {
			id, err := tr.ApplyAddLeaf(tip)
			if err != nil {
				return err
			}
			tip = id
		}
	case "star": // every leaf under the root
		for tr.Size() < sh.Nodes {
			if _, err := tr.ApplyAddLeaf(tr.root); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("tree: unknown shape %q", sh.Kind)
	}
	return nil
}

// Signature hashes the live nodes, each id with its parent in ascending id
// order: two trees built from the same (Shape, seed) agree, and a mismatched
// pair almost surely does not.
func (t *Tree) Signature() uint64 {
	h := fnv.New64a()
	var word [16]byte
	for _, id := range t.Nodes() {
		binary.LittleEndian.PutUint64(word[:8], uint64(id))
		binary.LittleEndian.PutUint64(word[8:], uint64(t.parent[id]))
		h.Write(word[:])
	}
	return h.Sum64()
}
