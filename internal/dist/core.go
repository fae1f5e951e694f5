package dist

import (
	"fmt"

	"dynctrl/internal/controller"
	"dynctrl/internal/pkgstore"
	"dynctrl/internal/sim"
	"dynctrl/internal/tree"
)

// core is the fixed-U distributed (M,W)-Controller of Section 4: the shared
// whiteboards of Section 3.1 plus a transport that moves packages by message
// passing. One request is processed at a time (Submit drains the runtime
// before returning), which models the paper's assumption that a single agent
// is active per request.
type core struct {
	*controller.Whiteboard
	rt  *sim.Runtime
	env *envelopes // shared with every core on rt's transport

	// cur holds the in-flight request; it is only non-nil between the
	// start of Submit and the completion of the matching Drain. It points
	// at pendingSlot, which is reused across requests (one request is in
	// flight at a time).
	cur         *pending
	pendingSlot pending
}

// pending is the per-request result slot the message handlers write into.
type pending struct {
	req   controller.Request
	done  bool
	grant controller.Grant
	err   error
}

// Submit runs one request through the message-passing protocol and blocks
// (draining the runtime) until the verdict is in. The decision sequence
// matches the centralized Core.Submit on identical traces.
func (c *core) Submit(req controller.Request) (controller.Grant, error) {
	if err := c.Validate(req); err != nil {
		return controller.Grant{}, err
	}
	c.rt.SetHandler(c.handle)
	c.pendingSlot = pending{req: req}
	c.cur = &c.pendingSlot
	c.localStep(req.Node)
	c.rt.Drain()
	p := c.cur
	c.cur = nil
	if !p.done && p.err == nil {
		p.err = fmt.Errorf("dist: request at %d lost in flight", req.Node)
	}
	return p.grant, p.err
}

// localStep runs the request's first protocol step at the requesting node u
// itself: items 1 and 2 of Protocol GrantOrReject, the d = 0 case of the
// filler search, and the degenerate u = root case. No message is spent on
// the request's arrival (requests originate at their node).
func (c *core) localStep(u tree.NodeID) {
	s := c.Store(u)
	if s.HasReject() {
		c.finish(c.Reject())
		return
	}
	if static := s.Static(); static != nil {
		c.finishGrant(c.Grant(c.cur.req, s, static, c.handoff))
		return
	}
	if pk := c.Filler(u, 0); pk != nil {
		c.startDescent(u, pk, u)
		return
	}
	// One tree call per hop: the root is the node without a parent.
	parent, err := c.Tree().Parent(u)
	if err != nil {
		c.fail(err)
		return
	}
	if parent == tree.InvalidNode {
		c.rootStep(u, u, 0)
		return
	}
	pl := &c.env.up
	pl.origin, pl.dist = u, 1
	c.rt.Send(u, parent, pl)
}

// handle dispatches one delivered message. It is installed on the runtime
// at the start of every submit, so several controllers can share one
// transport (the majority protocol runs two drivers on one runtime).
func (c *core) handle(m sim.Message) {
	if c.cur == nil || c.cur.err != nil {
		return // request already failed; drop the rest of the flight
	}
	switch pl := m.Payload.(type) {
	case *searchUp:
		c.handleSearch(m.To, pl)
	case *descend:
		c.handleDescend(pl)
	case rejectFlood:
		c.handleRejectFlood(m.To)
	case transfer:
		c.Absorb(m.To, pl.packages, pl.hadReject)
	default:
		c.fail(fmt.Errorf("dist: unknown payload %T", m.Payload))
	}
}

// handleSearch continues the filler search at node w, which is pl.dist hops
// above the requesting node (item 3 of Protocol GrantOrReject). The climb
// re-sends the same envelope hop after hop.
func (c *core) handleSearch(w tree.NodeID, pl *searchUp) {
	if pk := c.Filler(w, pl.dist); pk != nil {
		c.startDescent(w, pk, pl.origin)
		return
	}
	parent, err := c.Tree().Parent(w)
	if err != nil {
		c.fail(err)
		return
	}
	if parent == tree.InvalidNode {
		c.rootStep(w, pl.origin, pl.dist)
		return
	}
	pl.dist++
	c.rt.Send(w, parent, pl)
}

// rootStep handles a search that reached the root without finding a filler
// (item 3b): fund a fresh package of level j(u) from the storage straight
// into the descent envelope and send it down, or reject.
func (c *core) rootStep(root, origin tree.NodeID, dRoot int64) {
	funded, err := c.FundAtRoot(dRoot, &c.env.down.pkg)
	if err != nil {
		c.fail(err)
		return
	}
	if !funded {
		if c.NoRejects() {
			c.finish(controller.Grant{Outcome: controller.WouldReject})
			return
		}
		c.broadcastRejectWave()
		c.finish(c.Reject())
		return
	}
	c.descend(root, origin)
}

// startDescent takes the package found points at out of host's store into
// the descent envelope and sends it down toward origin.
func (c *core) startDescent(host tree.NodeID, found *pkgstore.Package, origin tree.NodeID) {
	c.env.down.pkg = *found
	if err := c.RemoveMobile(host, found); err != nil {
		c.fail(fmt.Errorf("distribute: %w", err))
		return
	}
	c.descend(host, origin)
}

// descend sends the package in the descent envelope from host down the tree
// toward origin, one message per edge (procedure Proc, item 4). The path is
// the breadcrumb trail the upward search established; it lives in the
// envelope too, whose buffer is reused across requests.
func (c *core) descend(host, origin tree.NodeID) {
	pl := &c.env.down
	path, err := c.Tree().AppendPathBetween(origin, host, pl.path[:0])
	if err != nil {
		c.fail(err)
		return
	}
	// Reverse to host-first order so path[i] is len(path)-1-i hops above
	// origin.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	pl.path = path
	if len(path) == 1 {
		// The package was found at origin itself (a level-0 filler at
		// d = 0): no transport needed.
		c.arrive(origin)
		return
	}
	pl.idx = 1
	c.rt.Send(host, path[1], pl)
}

// handleDescend advances the package one hop: the receiving node path[idx]
// is dist hops above origin; packages split when they enter a drop point
// u_{k-1} and convert to static on arrival. The same envelope is re-sent
// hop after hop.
func (c *core) handleDescend(pl *descend) {
	node := pl.path[pl.idx]
	dist := int64(len(pl.path) - 1 - pl.idx)
	pk := &pl.pkg
	c.Entered(pk.Size, node)
	// Split at drop points: for every level k > 0 whose drop distance
	// matches, the lower half stays here and the upper half continues (the
	// drop distances are strictly decreasing in k, so at most one level
	// fires).
	for pk.Level > 0 && dist == c.Params().UKDistance(pk.Level-1) {
		var lower pkgstore.Package
		if err := pk.Split(&lower); err != nil {
			c.fail(err)
			return
		}
		c.AddMobile(node, lower)
	}
	if dist == 0 {
		c.arrive(node)
		return
	}
	pl.idx++
	c.rt.Send(node, pl.path[pl.idx], pl)
}

// arrive grants the pending request from the level-0 package the descent
// envelope brought to the requesting node u.
func (c *core) arrive(u tree.NodeID) {
	c.finishGrant(c.Deliver(c.cur.req, c.Store(u), &c.env.down.pkg, c.handoff))
}

// finishGrant completes the pending request with a grant, or its error.
func (c *core) finishGrant(g controller.Grant, err error) {
	if err != nil {
		c.fail(err)
		return
	}
	c.finish(g)
}

// handoff is the graceful deletion: the node's packages travel to its
// parent in one message before the node leaves the tree. The runtime is
// quiet toward the node at this point (the protocol is sequential), which
// is the handshake the paper requires for graceful deletions. The message
// carries a copy of the packages, since the child's store goes with it.
func (c *core) handoff(from, parent tree.NodeID, child *pkgstore.Store) {
	pkgs, hadReject := child.TakeAll()
	c.rt.Send(from, parent, transfer{packages: pkgs, hadReject: hadReject})
}

// broadcastRejectWave floods a reject package to every node, one message
// per tree edge (item 3b). Idempotent: once the wave ran, later requests
// find the reject package locally.
func (c *core) broadcastRejectWave() {
	if !c.StartRejectWave() {
		return
	}
	root := c.Tree().Root()
	c.Store(root).SetReject()
	c.floodChildren(root)
}

// handleRejectFlood stores the reject package at the receiver and forwards
// the wave to its children.
func (c *core) handleRejectFlood(id tree.NodeID) {
	c.Store(id).SetReject()
	c.floodChildren(id)
}

func (c *core) floodChildren(id tree.NodeID) {
	kids, err := c.Tree().Children(id)
	if err != nil {
		return // the node left the tree while the wave was in flight
	}
	for _, kid := range kids {
		c.rt.Send(id, kid, rejectFlood{})
	}
}

func (c *core) finish(g controller.Grant) {
	c.cur.grant = g
	c.cur.done = true
}

func (c *core) fail(err error) {
	c.cur.err = err
	c.cur.done = true
}
