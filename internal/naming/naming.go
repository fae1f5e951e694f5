// Package naming implements the name-assignment protocol of Section 5.2:
// every node of the dynamic tree holds a short unique identity — an integer
// in [1, 4n] where n is the current number of nodes — at all times.
//
// The protocol runs in iterations. At the start of iteration i (with N_i
// current nodes) two DFS traversals relabel the tree: the first assigns the
// temporary identity 3N_i + DFS(v), the second assigns DFS(v). Identities
// therefore stay unique during the relabeling. A terminating
// (N_i/2, N_i/4)-Controller with explicit permit serials in
// [N_i+1, 3N_i/2] then admits the iteration's changes: a node added during
// the iteration takes its permit's serial as its identity.
package naming

import (
	"fmt"

	"dynctrl/internal/controller"
	"dynctrl/internal/pkgstore"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// Naming maintains short unique node identities under controlled
// topological changes.
type Naming struct {
	tr       *tree.Tree
	tp       controller.Transport
	counters *stats.Counters

	epochs *controller.Epochs
	ids    map[tree.NodeID]int64
}

// New builds the name-assignment protocol over tr, its controllers moving
// packages tp's way. Initial identities are assigned by the first
// iteration's DFS traversal (the paper assumes initial identities in
// [1, n₀]; the traversal realizes that).
func New(tr *tree.Tree, tp controller.Transport) *Naming {
	nm := &Naming{tr: tr, tp: tp, counters: stats.NewCounters(), ids: make(map[tree.NodeID]int64)}
	nm.epochs = tp.NewEpochs(tr, nm.counters, nm.plan)
	return nm
}

// plan is the protocol's controller.Plan: relabel, then admit the
// iteration's changes with a terminating (N_i/2, N_i/4)-controller whose
// permits carry the serials [N_i+1, 3N_i/2].
func (nm *Naming) plan(_ int, ni int64) (m, w int64, opts []controller.CoreOption) {
	// Two DFS relabeling traversals (2·2(n−1) messages) on top of the
	// broadcast/upcast that counted N_i. First traversal: id(v) = 3N_i +
	// DFS(v); second: id(v) = DFS(v). Identities remain unique throughout
	// because old identities lie in [1, 3N_i] (proved by induction in
	// Section 5.2); the final state is all that is observable between
	// requests.
	nm.tp.Sweep(nm.counters, nm.tr, 4)
	for id, iv := range nm.tr.Intervals() {
		if iv[0] > 0 {
			nm.ids[tree.NodeID(id)] = int64(iv[0])
		}
	}
	m = max(ni/2, 1)
	serials := pkgstore.Interval{Lo: ni + 1, Hi: ni + m}
	return m, ni / 4, []controller.CoreOption{controller.WithSerials(serials)}
}

// Iteration returns the 1-based iteration number.
func (nm *Naming) Iteration() int { return nm.epochs.Epoch() }

// Tree returns the tree the protocol maintains names for.
func (nm *Naming) Tree() *tree.Tree { return nm.tr }

// Counters returns the protocol's cost counters.
func (nm *Naming) Counters() *stats.Counters { return nm.counters }

// ID returns the current identity of a node.
func (nm *Naming) ID(v tree.NodeID) (int64, error) {
	id, ok := nm.ids[v]
	if !ok {
		return 0, fmt.Errorf("naming: no identity for %d: %w", v, tree.ErrNoSuchNode)
	}
	return id, nil
}

// Submit requests a topological change; added nodes receive their permit
// serial as identity.
func (nm *Naming) Submit(req controller.Request) (controller.Grant, error) {
	g, err := nm.epochs.Submit(req)
	if err == nil && g.Outcome == controller.Granted {
		switch req.Kind {
		case tree.AddLeaf, tree.AddInternal:
			nm.ids[g.NewNode] = g.Serial
		case tree.RemoveLeaf, tree.RemoveInternal:
			delete(nm.ids, req.Node)
		}
	}
	return g, err
}

// CheckInvariants verifies that every live node has an identity, the
// identities are unique, and each lies in [1, 4n] (Section 5.2's guarantee;
// a small additive slack covers trees below 4 nodes, where integrality of
// N_i/2 makes the constant coarse).
func (nm *Naming) CheckInvariants() error {
	n := int64(nm.tr.Size())
	seen := make(map[int64]tree.NodeID, n)
	for _, v := range nm.tr.Nodes() {
		id, ok := nm.ids[v]
		if !ok {
			return fmt.Errorf("naming: node %d has no identity", v)
		}
		if id < 1 {
			return fmt.Errorf("naming: node %d has non-positive identity %d", v, id)
		}
		if other, dup := seen[id]; dup {
			return fmt.Errorf("naming: identity %d shared by %d and %d", id, v, other)
		}
		seen[id] = v
		if id > 4*n+4 {
			return fmt.Errorf("naming: identity %d exceeds 4n+4 = %d (n=%d)", id, 4*n+4, n)
		}
	}
	if int64(len(seen)) != n {
		return fmt.Errorf("naming: %d identities for %d nodes", len(seen), n)
	}
	return nil
}
