package tree

import "fmt"

// This file is the tree's state-capture boundary for the durability engine
// (internal/persist): Snapshot copies the complete structural state of a
// tree into a plain exported value, and Restore replaces a tree's contents
// with a previously captured snapshot, in place, so that every component
// holding a *Tree (controllers, generators, servers) observes the restored
// state through its existing reference.

// NodeSnapshot is the captured state of one live node. Children are listed
// in insertion order. Depth follows from the parent links and is therefore
// not stored.
type NodeSnapshot struct {
	ID       NodeID
	Parent   NodeID
	Children []NodeID
}

// Snapshot is the complete captured state of a tree. It is plain data: the
// binary codec in internal/persist serializes it, and Restore rebuilds the
// identical tree from it (node ids, child order, change sequence and the
// deleted-id set all survive the round trip).
type Snapshot struct {
	Root        NodeID
	NextID      NodeID
	ChangeSeq   uint64
	EverExisted int
	Deleted     []NodeID
	Nodes       []NodeSnapshot
}

// Snapshot captures the tree's complete structural state. Nodes and deleted
// ids are emitted in ascending id order, so identical trees produce
// identical snapshots (the property the persist codecs and the snapshot
// tests rely on).
func (t *Tree) Snapshot() *Snapshot {
	s := &Snapshot{
		Root:        t.root,
		NextID:      NodeID(t.nodes.Len()),
		ChangeSeq:   t.changeSeq,
		EverExisted: t.nodes.Len() - 1,
		Deleted:     make([]NodeID, 0, t.nodes.Len()-1-t.live),
		Nodes:       make([]NodeSnapshot, 0, t.live),
	}
	for id, n := range t.nodes.All() {
		if id == InvalidNode {
			continue
		}
		if t.depth[id] < 0 {
			s.Deleted = append(s.Deleted, id)
			continue
		}
		// Built the same way whatever list the node's history left it, so
		// equal trees give deeply equal snapshots: a leaf lists nil children.
		s.Nodes = append(s.Nodes, NodeSnapshot{ID: id, Parent: NodeID(t.parent[id]), Children: widen(t.kids(n))})
	}
	return s
}

// Restore replaces the tree's contents with the captured snapshot, keeping
// the tree value (and thus every reference to it). A restore is state
// recovery, not a topological change: the change count becomes the snapshot's
// and Generation moves on. The restored tree is validated before the
// receiver is touched; on error the tree is left unchanged. It refuses ids
// that disagree with the snapshot's own counts or lie past the last id the
// tree hands out (before sizing anything), a listed parent or child outside
// the snapshot's ids (before narrowing it to a slot), and a walk that would
// push more nodes than are listed (cycles cost no more than the listing).
func (t *Tree) Restore(s *Snapshot) error {
	// Ids are dense, so the next id, the count of nodes that ever existed
	// and the lengths of the two lists determine one another. Checked before
	// the node slice is sized from them, this bounds the allocation by what
	// the snapshot actually lists: a corrupt id cannot become a huge slice.
	if s.NextID < 1 || int64(s.NextID)-1 != int64(s.EverExisted) ||
		s.EverExisted != len(s.Nodes)+len(s.Deleted) {
		return fmt.Errorf("restore: next id %d and %d nodes ever existed, but %d live and %d deleted listed",
			s.NextID, s.EverExisted, len(s.Nodes), len(s.Deleted))
	}
	if s.NextID-1 > idLimit {
		return fmt.Errorf("restore: next id %d: %w", s.NextID, ErrNoIDLeft)
	}
	// Every id a node lists is held to the range below before it is
	// narrowed to its slot, so an id past 2^32 cannot alias a live one.
	inRange := func(id NodeID) bool { return id > InvalidNode && id < s.NextID }
	// Built as a tree of its own, so the live tree's bounds-checked lookup
	// serves the checks below and nothing of t is touched before they pass.
	// Every id starts out not live, at depth -1; a listed node is live at
	// depth 0 until the walk from the root below gives it its depth.
	r := &Tree{
		parent: make([]uint32, s.NextID),
		depth:  make([]int32, s.NextID),
	}
	for id := range r.depth {
		r.depth[id] = -1
	}
	r.nodes.Grow(int(s.NextID))
	r.lists.Grow(1)
	r.express.Grow(int(s.NextID))
	for _, ns := range s.Nodes {
		if !inRange(ns.ID) {
			return fmt.Errorf("restore: node id %d outside 1..%d: %w", ns.ID, s.NextID-1, ErrNoSuchNode)
		}
		if r.Contains(ns.ID) {
			return fmt.Errorf("restore: node %d listed twice: %w", ns.ID, ErrAlreadyExists)
		}
		if ns.Parent != InvalidNode && !inRange(ns.Parent) {
			return fmt.Errorf("restore: parent %d of %d outside 1..%d: %w", ns.Parent, ns.ID, s.NextID-1, ErrNoSuchNode)
		}
		if len(ns.Children) > 0 {
			kids := make([]uint32, len(ns.Children))
			for i, c := range ns.Children {
				if !inRange(c) {
					return fmt.Errorf("restore: child %d of %d outside 1..%d: %w", c, ns.ID, s.NextID-1, ErrNoSuchNode)
				}
				kids[i] = slot(c)
			}
			*r.takeList(r.nodes.At(ns.ID)) = kids
		}
		r.parent[ns.ID] = slot(ns.Parent)
		r.depth[ns.ID] = 0
	}
	// The deleted ids are the entries not live; with the counts above,
	// listing each of them once is the same as listing exactly them.
	for i, id := range s.Deleted {
		if !inRange(id) || r.Contains(id) || (i > 0 && id <= s.Deleted[i-1]) {
			return fmt.Errorf("restore: deleted id %d is live, out of range or out of order", id)
		}
	}
	if !r.Contains(s.Root) {
		return fmt.Errorf("restore: root %d: %w", s.Root, ErrNoSuchNode)
	}
	r.root, r.live = s.Root, len(s.Nodes)
	// Derive depths, express links and slots from the root, then hold the
	// staged tree to everything Validate checks of a live one (parent links,
	// child lists, reachability) before committing. In a tree each listed node is
	// pushed once, so a walk about to push more nodes than are listed has met
	// a cycle or a node listed twice and stops there: the stack, and the work,
	// never outgrow what the snapshot lists.
	pushed := 1
	stack := []NodeID{s.Root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i, k := range r.kids(r.nodes.At(id)) {
			cid := NodeID(k)
			if pushed++; pushed > len(s.Nodes) {
				return fmt.Errorf("restore: node %d reachable twice", cid)
			}
			c := r.get(cid)
			if c == nil {
				return fmt.Errorf("restore: child %d of %d: %w", cid, id, ErrNoSuchNode)
			}
			r.depth[cid] = r.depth[id] + 1
			*r.express.At(cid) = r.expressVia(id)
			c.slot = int32(i)
			stack = append(stack, cid)
		}
	}
	r.atDepth = countDepths(r.depth)
	if err := r.Validate(); err != nil {
		return fmt.Errorf("restore: %w", err)
	}

	t.nodes, t.lists, t.free = r.nodes, r.lists, nil
	t.parent, t.depth, t.express, t.atDepth = r.parent, r.depth, r.express, r.atDepth
	t.expressEpoch++
	t.live = len(s.Nodes)
	t.root = s.Root
	t.changeSeq = s.ChangeSeq
	t.generation++
	return nil
}
