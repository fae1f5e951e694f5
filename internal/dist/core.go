package dist

import (
	"fmt"

	"dynctrl/internal/controller"
	"dynctrl/internal/pkgstore"
	"dynctrl/internal/sim"
	"dynctrl/internal/tree"
)

// Core is the fixed-U distributed (M,W)-Controller of Section 4: the shared
// whiteboards of Section 3.1 plus a transport that moves packages by message
// passing. One request is processed at a time (Submit drains the runtime
// before returning), which models the paper's assumption that a single agent
// is active per request.
type Core struct {
	*controller.Whiteboard
	rt sim.Runtime

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
func (c *Core) Submit(req controller.Request) (controller.Grant, error) {
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
func (c *Core) localStep(u tree.NodeID) {
	if c.Store(u).HasReject() {
		c.finish(c.Reject())
		return
	}
	if static := c.Store(u).Static(); static != nil {
		c.finishGrant(static)
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
	pl := searchUpPool.Get().(*searchUp)
	pl.origin, pl.dist = u, 1
	c.rt.Send(u, parent, pl)
}

// handle dispatches one delivered message. It is installed on the runtime
// at the start of every submit, so several controllers can share one
// transport (the majority protocol runs two drivers on one runtime).
func (c *Core) handle(m sim.Message) {
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
// re-sends the same pooled envelope hop after hop and releases it when the
// search ends.
func (c *Core) handleSearch(w tree.NodeID, pl *searchUp) {
	if pk := c.Filler(w, pl.dist); pk != nil {
		origin := pl.origin
		putSearchUp(pl)
		c.startDescent(w, pk, origin)
		return
	}
	parent, err := c.Tree().Parent(w)
	if err != nil {
		putSearchUp(pl)
		c.fail(err)
		return
	}
	if parent == tree.InvalidNode {
		origin, dist := pl.origin, pl.dist
		putSearchUp(pl)
		c.rootStep(w, origin, dist)
		return
	}
	pl.dist++
	c.rt.Send(w, parent, pl)
}

// rootStep handles a search that reached the root without finding a filler
// (item 3b): fund a fresh package of level j(u) from the storage, or reject.
func (c *Core) rootStep(root, origin tree.NodeID, dRoot int64) {
	pk, err := c.CreateAtRoot(dRoot)
	if err != nil {
		c.fail(err)
		return
	}
	if pk == nil {
		if c.NoRejects() {
			c.finish(controller.Grant{Outcome: controller.WouldReject})
			return
		}
		c.broadcastRejectWave()
		c.finish(c.Reject())
		return
	}
	c.startDescent(root, pk, origin)
}

// startDescent takes the package found points at out of host's store and
// sends it down the tree toward origin, one message per edge (procedure
// Proc, item 4). The path is the breadcrumb trail the upward search
// established; it lives in a pooled descend envelope whose buffer is reused
// across requests.
func (c *Core) startDescent(host tree.NodeID, found *pkgstore.Package, origin tree.NodeID) {
	pkg := *found
	if err := c.RemoveMobile(host, found); err != nil {
		c.fail(fmt.Errorf("distribute: %w", err))
		return
	}
	pl := descendPool.Get().(*descend)
	path, err := c.Tree().AppendPathBetween(origin, host, pl.path[:0])
	if err != nil {
		putDescend(pl)
		c.fail(err)
		return
	}
	// Reverse to host-first order so path[i] is len(path)-1-i hops above
	// origin.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	if len(path) == 1 {
		// The package was found at origin itself (a level-0 filler at
		// d = 0): no transport needed.
		pl.path = path
		putDescend(pl)
		c.arrive(pkg, origin)
		return
	}
	pl.pkg, pl.path, pl.idx = pkg, path, 1
	c.rt.Send(host, path[1], pl)
}

// handleDescend advances the package one hop: the receiving node path[idx]
// is dist hops above origin; packages split when they enter a drop point
// u_{k-1} and convert to static on arrival. The same pooled envelope is
// re-sent hop after hop and released on arrival.
func (c *Core) handleDescend(pl *descend) {
	node := pl.path[pl.idx]
	dist := int64(len(pl.path) - 1 - pl.idx)
	pkg := pl.pkg
	c.Entered(pkg.Size, node)
	// Split at drop points: for every level k > 0 whose drop distance
	// matches, one half stays here and the other half continues (the drop
	// distances are strictly decreasing in k, so at most one level fires).
	for pkg.Level > 0 && dist == c.Params().UKDistance(pkg.Level-1) {
		p1, p2, err := pkg.Split()
		if err != nil {
			putDescend(pl)
			c.fail(err)
			return
		}
		c.AddMobile(node, p1)
		pkg = p2
	}
	if dist == 0 {
		putDescend(pl)
		c.arrive(pkg, node)
		return
	}
	pl.pkg = pkg
	pl.idx++
	c.rt.Send(node, pl.path[pl.idx], pl)
}

// arrive converts the level-0 package to static at the requesting node and
// grants the pending request from it.
func (c *Core) arrive(pkg pkgstore.Package, u tree.NodeID) {
	if err := pkg.BecomeStatic(); err != nil {
		c.fail(err)
		return
	}
	c.finishGrant(c.Store(u).AddStatic(pkg))
}

// finishGrant grants the pending request one permit of the static package
// in the store of its node (item 2 of Protocol GrantOrReject) and completes
// it.
func (c *Core) finishGrant(static *pkgstore.Package) {
	g, err := c.Grant(c.cur.req, static, c.handoff)
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
func (c *Core) handoff(from, parent tree.NodeID, child *pkgstore.Store) {
	pkgs, hadReject := child.TakeAll()
	c.rt.Send(from, parent, transfer{packages: pkgs, hadReject: hadReject})
}

// broadcastRejectWave floods a reject package to every node, one message
// per tree edge (item 3b). Idempotent: once the wave ran, later requests
// find the reject package locally.
func (c *Core) broadcastRejectWave() {
	if !c.StartRejectWave() {
		return
	}
	root := c.Tree().Root()
	c.Store(root).SetReject()
	c.floodChildren(root)
}

// handleRejectFlood stores the reject package at the receiver and forwards
// the wave to its children.
func (c *Core) handleRejectFlood(id tree.NodeID) {
	c.Store(id).SetReject()
	c.floodChildren(id)
}

func (c *Core) floodChildren(id tree.NodeID) {
	kids, err := c.Tree().Children(id)
	if err != nil {
		return // the node left the tree while the wave was in flight
	}
	for _, kid := range kids {
		c.rt.Send(id, kid, rejectFlood{})
	}
}

func (c *Core) finish(g controller.Grant) {
	c.cur.grant = g
	c.cur.done = true
}

func (c *Core) fail(err error) {
	c.cur.err = err
	c.cur.done = true
}
