package labeling

import (
	"fmt"

	"dynctrl/internal/tree"
)

// Routing is an exact (stretch-1) interval routing scheme on the tree
// (the first family of Observation 5.5): every node stores a table mapping
// each child's DFS interval to the port leading to that child, plus its
// parent port; a destination is addressed by its ancestry (interval)
// label. Next-hop decisions read only the local table and the destination
// label. Deletions of degree-one nodes never affect surviving routes, so
// the scheme extends to the controlled dynamic model via the Dynamic
// wrapper (Corollary 5.6).
type Routing struct {
	tables map[tree.NodeID]routingTable
	labels map[tree.NodeID]AncestryLabel
}

type routingTable struct {
	self       AncestryLabel
	parentPort int
	hasParent  bool
	entries    []routingEntry
}

type routingEntry struct {
	iv   AncestryLabel
	port int
	// child is retained for simulation-side forwarding (real deployments
	// use the port alone).
	child tree.NodeID
}

// BuildRouting labels the current tree and snapshots every node's routing
// table. The distributed construction costs O(n) messages (one DFS).
func BuildRouting(tr *tree.Tree) (*Routing, error) {
	r := &Routing{
		tables: make(map[tree.NodeID]routingTable, tr.Size()),
		labels: make(map[tree.NodeID]AncestryLabel, tr.Size()),
	}
	for id, p := range tr.Intervals() {
		if p[0] > 0 {
			r.labels[tree.NodeID(id)] = AncestryLabel{Pre: int(p[0]), Post: int(p[1])}
		}
	}
	for id := range tr.All() {
		tbl := routingTable{self: r.labels[id]}
		if parent, err := tr.Parent(id); err == nil && parent != tree.InvalidNode {
			port, err := tr.ParentPort(id)
			if err != nil {
				return nil, fmt.Errorf("routing: %w", err)
			}
			tbl.parentPort = port
			tbl.hasParent = true
		}
		kids, err := tr.Children(id)
		if err != nil {
			return nil, fmt.Errorf("routing: %w", err)
		}
		for _, k := range kids {
			port, err := tr.ChildPort(id, k)
			if err != nil {
				return nil, fmt.Errorf("routing: %w", err)
			}
			tbl.entries = append(tbl.entries, routingEntry{iv: r.labels[k], port: port, child: k})
		}
		r.tables[id] = tbl
	}
	return r, nil
}

// Address returns the destination address (ancestry label) of a node.
func (r *Routing) Address(v tree.NodeID) (AncestryLabel, error) {
	l, ok := r.labels[v]
	if !ok {
		return AncestryLabel{}, fmt.Errorf("routing address of %d: %w", v, errNoLabel)
	}
	return l, nil
}

// Delivered reports whether dest addresses the node holding the table.
func (r *Routing) Delivered(at tree.NodeID, dest AncestryLabel) bool {
	tbl, ok := r.tables[at]
	return ok && tbl.self == dest
}

// NextHop returns the outgoing port at node `at` toward the destination
// address: the child whose interval contains dest, else the parent port.
func (r *Routing) NextHop(at tree.NodeID, dest AncestryLabel) (port int, err error) {
	tbl, ok := r.tables[at]
	if !ok {
		return 0, fmt.Errorf("routing table of %d: %w", at, errNoLabel)
	}
	if tbl.self == dest {
		return 0, fmt.Errorf("routing: destination %v is local", dest)
	}
	for _, e := range tbl.entries {
		if isAncestor(e.iv, dest) {
			return e.port, nil
		}
	}
	if !tbl.hasParent {
		return 0, fmt.Errorf("routing: no route to %v from the root", dest)
	}
	return tbl.parentPort, nil
}

// nextHopNode is the simulation-side companion of NextHop.
func (r *Routing) nextHopNode(at tree.NodeID, dest AncestryLabel, tr *tree.Tree) (tree.NodeID, error) {
	tbl, ok := r.tables[at]
	if !ok {
		return tree.InvalidNode, fmt.Errorf("routing table of %d: %w", at, errNoLabel)
	}
	for _, e := range tbl.entries {
		if isAncestor(e.iv, dest) {
			return e.child, nil
		}
	}
	p, err := tr.Parent(at)
	if err != nil || p == tree.InvalidNode {
		return tree.InvalidNode, fmt.Errorf("routing: stuck at %d", at)
	}
	return p, nil
}

// Route walks a packet from src to dst through the snapshotted tables and
// returns the hop count. It is the verification companion of NextHop (real
// deployments forward by port number alone).
func (r *Routing) Route(tr *tree.Tree, src, dst tree.NodeID) (hops int, err error) {
	dest, err := r.Address(dst)
	if err != nil {
		return 0, err
	}
	cur := src
	for limit := 0; limit <= len(r.tables)+1; limit++ {
		if r.Delivered(cur, dest) {
			return hops, nil
		}
		next, err := r.nextHopNode(cur, dest, tr)
		if err != nil {
			return hops, err
		}
		cur = next
		hops++
	}
	return hops, fmt.Errorf("routing: loop detected from %d to %d", src, dst)
}

// MaxBits implements Scheme: the largest routing table size in bits (the
// per-node table has one interval per child plus a port each).
func (r *Routing) MaxBits() int {
	max := 0
	for _, tbl := range r.tables {
		bits := tbl.self.Bits() + bitsFor(tbl.parentPort)
		for _, e := range tbl.entries {
			bits += e.iv.Bits() + bitsFor(e.port)
		}
		if bits > max {
			max = bits
		}
	}
	return max
}

var _ Scheme = (*Routing)(nil)
