package controller

import (
	"fmt"

	"dynctrl/internal/pkgstore"
	"dynctrl/internal/tree"
)

// DomainTracker maintains the package domains of Section 3.2. The paper
// uses domains purely for analysis — the algorithm itself neither stores
// nor communicates them — so the tracker is optional and exists to let
// tests assert the three Domain Invariants after every step
// (CheckInvariants, in export_test.go):
//
//  1. the domain of each existing level-k mobile package contains
//     2^{k-1}·ψ nodes (deleted nodes keep their membership);
//  2. the domains of existing level-k packages are pairwise disjoint;
//  3. the currently existing nodes of a domain form a path hanging down
//     from some child of the node holding the package.
type DomainTracker struct {
	tr     *tree.Tree
	params pkgstore.Params
	// domains maps the Tag of each tracked mobile package to its domain. A
	// package's address moves whenever its store's slice grows or gives up a
	// slot, so the tracker names it by the tag it stamps in onFormed, which
	// travels with the package's value; next is the tag it stamps next.
	domains map[uint32]*domain
	next    uint32
}

type domain struct {
	level int
	host  tree.NodeID
	// members lists the domain's nodes top-down: members[0] is the node
	// nearest the host (a child of it while existing). Deleted nodes
	// remain members (Case 5 of the domain update rules).
	members []tree.NodeID
}

// newDomainTracker returns an empty tracker.
func newDomainTracker(tr *tree.Tree, params pkgstore.Params) *DomainTracker {
	return &DomainTracker{
		tr:      tr,
		params:  params,
		domains: make(map[uint32]*domain),
	}
}

// LevelCounts returns the number of tracked packages per level.
func (d *DomainTracker) LevelCounts() map[int]int {
	out := make(map[int]int)
	for _, dom := range d.domains {
		out[dom.level]++
	}
	return out
}

// onFormed records the domain of a freshly dropped level-k package pk left
// at its drop point target = u_k during procedure Proc serving a request at
// u (Case 2 of the domain definitions): the members are the nodes x on the
// path between u and target with 1 ≤ d(x, target) ≤ 2^{k-1}ψ. It stamps pk
// with a fresh tag, so it must see the package before it enters the store.
func (d *DomainTracker) onFormed(pk *pkgstore.Package, u, target tree.NodeID) error {
	size := int(d.params.DomainSize(pk.Level))
	path, err := d.tr.PathBetween(u, target) // bottom-up: path[0]=u ... path[last]=target
	if err != nil {
		return fmt.Errorf("domain formation: %w", err)
	}
	if len(path)-1 < size {
		return fmt.Errorf("domain formation: path of %d edges cannot hold domain of %d nodes",
			len(path)-1, size)
	}
	members := make([]tree.NodeID, size)
	for j := 0; j < size; j++ {
		// Top-down: distance j+1 below target.
		members[j] = path[len(path)-2-j]
	}
	d.next++
	pk.Tag = d.next
	d.domains[pk.Tag] = &domain{level: pk.Level, host: target, members: members}
	return nil
}

// onConsumed drops the domain of a package that split, became static or was
// canceled.
func (d *DomainTracker) onConsumed(pk pkgstore.Package) {
	delete(d.domains, pk.Tag)
}

// onAddInternal applies Case 4 of the domain update rules: the new node,
// inserted as the parent of childID, joins every domain containing childID,
// and each such domain sheds its bottom-most existing member.
func (d *DomainTracker) onAddInternal(newID, childID tree.NodeID) {
	for _, dom := range d.domains {
		idx := -1
		for i, m := range dom.members {
			if m == childID {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue
		}
		dom.members = append(dom.members, tree.InvalidNode)
		copy(dom.members[idx+1:], dom.members[idx:])
		dom.members[idx] = newID
		// Remove the bottom-most existing member.
		for i := len(dom.members) - 1; i >= 0; i-- {
			if d.tr.Contains(dom.members[i]) {
				dom.members = append(dom.members[:i], dom.members[i+1:]...)
				break
			}
		}
	}
}

// onHostMoved re-homes the domains of packages that migrated to a deleted
// host's parent (graceful deletion).
func (d *DomainTracker) onHostMoved(pkgs []pkgstore.Package, newHost tree.NodeID) {
	for _, pk := range pkgs {
		if dom, ok := d.domains[pk.Tag]; ok {
			dom.host = newHost
		}
	}
}
