// Package controller implements the paper's centralized (M,W)-Controller
// (Section 3) together with the terminating transformation (Observation
// 2.1), the waste-halving iteration (Observation 3.4), and the unknown-U
// drivers of Theorem 3.5.
//
// The cost measure is move complexity: every move of a set of objects from
// a node to a neighbor costs one unit, so moving a package across d edges
// costs d. The distributed implementation (package dist) translates the
// move complexity into message complexity (Section 4) by swapping the
// transport under the same whiteboards and the same drivers: Whiteboard is
// the state both execution models share, Transport the seam between them,
// and the drivers, Iterated, Dynamic and Epochs, are written once against
// it. The terminating transformation (Observation 2.1) is a no-reject core
// whose WouldReject ends the run: Epochs and the AsTerminating and
// DynamicTerminating drivers pay its broadcast/upcast themselves.
package controller

import (
	"fmt"

	"dynctrl/internal/pkgstore"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// Outcome is the controller's answer to a request.
type Outcome int

// Request outcomes. WouldReject is produced only in no-reject mode (used by
// the terminating transformation): it signals that the controller is out of
// permits without broadcasting the reject wave.
const (
	Granted Outcome = iota + 1
	Rejected
	WouldReject
)

// String returns a human-readable outcome name.
func (o Outcome) String() string {
	switch o {
	case Granted:
		return "granted"
	case Rejected:
		return "rejected"
	case WouldReject:
		return "would-reject"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Request is one event submitted to the controller, declared once in
// package tree so the wire can carry it without importing this package.
type Request = tree.Request

// Grant is the controller's response to a request.
type Grant struct {
	Outcome Outcome
	// Serial is the granted permit's serial number when the controller
	// runs with explicit serials (name assignment), else 0.
	Serial int64
	// NewNode is the id of the node created by a granted addition.
	NewNode tree.NodeID
}

// Core is the fixed-U centralized (M,W)-Controller of Section 3.1: the
// shared whiteboards plus a transport that moves a package across d edges
// in one step at a cost of d moves. It is not safe for concurrent use; the
// centralized setting is sequential by definition.
//
// A Core is built for every iteration of the drivers and holds only what
// every slow path uses; the domain tracker, which tests switch on, and the
// path scratch of a descent observer sit with the whiteboards.
type Core struct {
	*Whiteboard

	// carried is the package the slow path moves: copied out of the
	// filler's store, or funded straight from the root's storage, then
	// split and converted here on its way down to the requesting node.
	carried pkgstore.Package

	// Scratch of distribute, reused across requests: the hop distances of
	// the drop points u_0..u_{j-1} from the requesting node, and the nodes.
	dropDists []int
	drops     []tree.NodeID
}

// NewCore creates a fixed-U (m, w)-Controller over tr assuming at most u
// nodes ever exist. The root's storage initially holds the m permits. It is
// what Centralized attaches to whiteboards, returned as itself for the
// callers that want the domain analysis of Section 3.2.
func NewCore(tr *tree.Tree, u, m, w int64, opts ...CoreOption) *Core {
	return &Core{Whiteboard: newWhiteboard(tr, u, m, w, nil, opts...)}
}

// EnableDomainTracking switches on the analysis-only domain bookkeeping of
// Section 3.2 so tests can assert the domain invariants. It must be called
// before the first request is submitted.
func (c *Core) EnableDomainTracking() {
	if c.domains == nil {
		c.domains = newDomainTracker(c.tr, c.params)
	}
}

// Domains returns the domain tracker (nil unless tracking is enabled).
func (c *Core) Domains() *DomainTracker { return c.domains }

// Submit runs Protocol GrantOrReject (Section 3.1) for one request and, if
// the request is topological and granted, applies the change to the tree.
func (c *Core) Submit(req Request) (Grant, error) {
	if err := c.Validate(req); err != nil {
		return Grant{}, err
	}
	u := req.Node
	s := c.Store(u)

	// Item 1: a reject package at u rejects the request outright.
	if s.HasReject() {
		return c.Reject(), nil
	}

	// Item 2: grant from a local static package when possible.
	if static := s.Static(); static != nil {
		return c.Grant(req, s, static, c.handoff)
	}

	// Item 3: find the closest filler node with respect to u.
	host, dist, pkg, err := c.findFiller(u)
	if err != nil {
		return Grant{}, err
	}
	if pkg != nil {
		c.carried = *pkg
		if err := c.RemoveMobile(host, pkg); err != nil {
			return Grant{}, fmt.Errorf("distribute: %w", err)
		}
		if c.domains != nil {
			c.domains.onConsumed(c.carried)
		}
	} else {
		// Item 3b: no filler, so the search ended at the root; fund a
		// package there if the storage suffices, otherwise reject with a
		// reject wave.
		funded, err := c.FundAtRoot(dist, &c.carried)
		if err != nil {
			return Grant{}, err
		}
		if !funded {
			if c.noRejects {
				return Grant{Outcome: WouldReject}, nil
			}
			c.broadcastRejectWave()
			return c.Reject(), nil
		}
	}

	// Item 4: distribute the package's content along the path to u.
	if err := c.distribute(host, u, dist); err != nil {
		return Grant{}, err
	}
	return c.Deliver(req, s, &c.carried, c.handoff)
}

// findFiller climbs from u toward the root in one tree call and stops at
// the first (closest) filler node: it returns that node, its distance from
// u and its qualifying package. When no filler exists the climb ends at the
// root, which it returns with a nil package. The climb scans the level masks
// and runs the filler test only at nodes that hold a mobile package of the
// one level that qualifies at their distance, and where the block rows say a
// stretch holds none of the levels its distances call for it takes the
// tree's express link past it; the visitor reads whiteboards only, as
// tree.ClimbMarked requires.
func (c *Core) findFiller(u tree.NodeID) (tree.NodeID, int64, *pkgstore.Package, error) {
	c.syncBlocks()
	var pk *pkgstore.Package
	host, d, err := c.tr.ClimbMarked(u, c.bands, c.masks, c.blocks, func(w tree.NodeID, d int) bool {
		pk = c.Filler(w, int64(d))
		return pk != nil
	})
	return host, int64(d), pk, err
}

// distribute implements procedure Proc (Section 3.1, item 4): the level-j
// package in c.carried, taken from host's store or funded at the root, is
// moved down toward u, splitting at each drop point u_k so that for every
// k ∈ {0..j-1} one level-k mobile package remains at the ancestor u_k of u
// at distance 3·2^{k-1}ψ, and the level-0 rest reaches u, curDist hops below
// host, still in c.carried.
func (c *Core) distribute(host, u tree.NodeID, curDist int64) error {
	pk := &c.carried
	if pk.Level > 0 {
		// The drop points lie on one path, u_0 nearest u: one ascending
		// walk finds them all before the package starts down past them.
		c.dropDists = c.dropDists[:0]
		for k := 0; k < pk.Level; k++ {
			c.dropDists = append(c.dropDists, int(c.params.UKDistance(k)))
		}
		var err error
		c.drops, err = c.tr.AppendAncestors(u, c.dropDists, c.drops[:0])
		if err != nil {
			return fmt.Errorf("distribute: drop points u_0..u_%d up to distance %d: %w",
				pk.Level-1, c.params.UKDistance(pk.Level-1), err)
		}
	}
	for pk.Level > 0 {
		targetDist, target := int64(c.dropDists[pk.Level-1]), c.drops[pk.Level-1]
		c.moveDown(pk.Size, host, target, curDist-targetDist)
		var lower pkgstore.Package
		if err := pk.Split(&lower); err != nil {
			return err
		}
		if c.domains != nil {
			if err := c.domains.onFormed(&lower, u, target); err != nil {
				return err
			}
		}
		c.AddMobile(target, lower)
		host, curDist = target, targetDist
	}
	c.moveDown(pk.Size, host, u, curDist)
	return nil
}

// moveDown accounts for a move of a package of the given size over the given
// hop distance from host down to target and notifies the descent observer.
func (c *Core) moveDown(size int64, host, target tree.NodeID, dist int64) {
	if dist < 0 {
		dist = 0
	}
	c.counters.Add(stats.CounterMoves, dist)
	if obs := c.descent; obs != nil && dist > 0 {
		path, err := c.tr.AppendPathBetween(target, host, obs.path[:0])
		if err == nil {
			// path is target..host bottom-up; the package enters every
			// node strictly below host, top-down.
			for i := len(path) - 2; i >= 0; i-- {
				obs.fn(size, path[i])
			}
			obs.path = path
		}
	}
}

// handoff is the graceful deletion of item 2: one move carries the whole
// set of objects across the edge to the parent. The packages go straight
// from the child's store into the parent's, statics first, as Absorb orders
// them.
func (c *Core) handoff(_, parent tree.NodeID, child *pkgstore.Store) {
	c.counters.Add(stats.CounterMoves, 1)
	if c.domains != nil {
		c.domains.onHostMoved(child.Mobiles(), parent)
	}
	c.Absorb(parent, child.Statics(), child.HasReject())
	c.Absorb(parent, child.Mobiles(), false)
}

// broadcastRejectWave places a reject package in every node (item 3b). The
// centralized simulation is instantaneous; the move cost is one per tree
// edge (the packages split at each node and one copy crosses each edge).
func (c *Core) broadcastRejectWave() {
	if !c.StartRejectWave() {
		return
	}
	for id := range c.tr.All() {
		c.Store(id).SetReject()
	}
	Centralized.Sweep(c.counters, c.tr, 1)
}
