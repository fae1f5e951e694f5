// Package tree implements the dynamic rooted spanning tree substrate used
// by the controller and its applications.
//
// The tree supports the four topological changes of the paper (Section 2.1):
//
//   - AddLeaf: a new degree-one vertex is added as a child of an existing
//     vertex.
//   - RemoveLeaf: a non-root vertex of degree one is deleted.
//   - AddInternal: an edge (v, w) is split into (v, u) and (u, w) for a new
//     node u.
//   - RemoveInternal: a non-root node u is deleted; u's children become
//     children of u's parent.
//
// Port numbers at every vertex are distinct and, to model the paper's
// adversarial port assumption, are produced by a pluggable PortAssigner.
//
// Storage. Node ids are dense by construction (they count up from 1 and are
// never reused), so the tree keeps its nodes, by value, in a Table indexed by
// NodeID: no lookup hashes, and adding a node allocates nothing but a chunk of
// the table every 512 ids. An entry holds no pointer and no slice header:
// a node's children, each with the port toward it, are a list in a second
// Table, which only a node with children holds a slot of, and a node knows
// its own slot in its parent's list, so linking tests the ports at the two
// endpoints in place and unlinking is a swap-remove. A list slot a node gives
// up, because its last child left or it was deleted, keeps its backing array
// and is the next one handed out, so the list table grows only to the most
// nodes that have had children at once. Nodes, Leaves and Snapshot walk the
// node table and therefore answer in ascending id order.
//
// What an ancestor walk reads lives apart from the nodes: the parent link
// and the cached depth of every id sit in two more slices indexed by NodeID,
// and nowhere else. Liveness lives in depth too: a deleted id, and id 0, has
// depth -1, and there is no other copy of it. A hop of Climb, Ancestor,
// Distance or a path is then one load from the parent slice, the start node's
// depth and liveness one load from the other, and no walk dereferences a
// node.
//
// Express links let a walk skip hops. The link of an id names its nearest
// proper ancestor at a depth that is a multiple of expressStride, a stop: a
// walk that knows how far it is going (ancestor) or that nothing of interest
// lies before the next stop (ClimbMarked) takes the link and saves up to
// expressStride hops. What is of interest to ClimbMarked depends on the
// distance: its marks carry one bit a band of distances, and the caller's
// count of a stop's block is a row with one counter a band, so a block whose
// marks are all for bands other than the one or two the climb passes it in is
// skipped like one that holds none. The links follow from the depths and are
// written wherever a depth is (no snapshot holds them), and the hops up to a
// link follow from the depth alone, so a walk that knows where it starts
// loads no stop's depth.
// They sit in a Table of their own, not in a third flat slice: a walk reads
// a link once a block, not once a hop, so the second index costs it a tenth
// of what the links save, and a slice doubled beside parent and depth
// abandons its copies to the collector, which on a tree growing to 25 000
// nodes in a daemon's first 50 000 requests was a fourth collection where
// there had been three.
//
// Ownership. A Tree has no lock: it belongs to whoever drives the
// controller over it, and every method, the readers included, is that
// owner's to call. A second goroutine that wants to look (the daemon's
// metrics page reads Size and Height) takes whatever lock orders the owner's
// calls and reads under it; in the daemon that is tenant.mu, and the
// message-passing engine's handlers are ordered by the simulator, which runs
// one at a time. The callbacks of Climb, ClimbMarked and WalkDFS therefore
// run on the owner's goroutine in the middle of a tree call and must not
// call back into the tree, because a mutation would change what the call is
// walking, not because a lock is held. Restore swaps the tables and the
// counters of the receiver in place, as one more mutation of the owner's, so
// whoever holds the *Tree sees the restored state at its next call.
package tree

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
)

// NodeID identifies a node of the dynamic tree. IDs are never reused, so a
// NodeID also identifies a deleted node unambiguously.
type NodeID int64

// InvalidNode is the zero NodeID; it never names a real node.
const InvalidNode NodeID = 0

// expressStride is the distance between two stops of the express links.
// Measured at 8, 16 and 32 on the deep engine row (a path of 8 192, climbs of
// 385 hops past 4 marked nodes): a jump saves stride hops, a marked node
// costs a walk of its block of stride, and 16 read lowest.
const expressStride = 16

// Errors returned by topological operations.
var (
	ErrNoSuchNode    = errors.New("tree: no such node")
	ErrNotLeaf       = errors.New("tree: node is not a leaf")
	ErrNotInternal   = errors.New("tree: node is not internal")
	ErrIsRoot        = errors.New("tree: operation not allowed on the root")
	ErrNotRelated    = errors.New("tree: nodes are not in a parent-child relation")
	ErrAlreadyExists = errors.New("tree: node already exists")
)

// ChangeKind enumerates the topological change types of Section 2.1.
type ChangeKind int

// The four topological change kinds, plus None for non-topological events.
const (
	None ChangeKind = iota
	AddLeaf
	RemoveLeaf
	AddInternal
	RemoveInternal
)

// String returns the paper's name for the change kind.
func (k ChangeKind) String() string {
	switch k {
	case None:
		return "none"
	case AddLeaf:
		return "add-leaf"
	case RemoveLeaf:
		return "remove-leaf"
	case AddInternal:
		return "add-internal"
	case RemoveInternal:
		return "remove-internal"
	default:
		return fmt.Sprintf("ChangeKind(%d)", int(k))
	}
}

// IsRemoval reports whether the change deletes a node.
func (k ChangeKind) IsRemoval() bool { return k == RemoveLeaf || k == RemoveInternal }

// IsAddition reports whether the change inserts a node.
func (k ChangeKind) IsAddition() bool { return k == AddLeaf || k == AddInternal }

// Request is one event asking for a permit, as the controller takes it and
// as the wire carries it (controller.Request and wire.Req are this type).
// Per Section 2.1, a request to delete a node arrives at that node, and a
// request to add a node arrives at the node's parent-to-be.
type Request struct {
	// Node is the node at which the request arrives.
	Node NodeID
	// Kind is the topological change requested; None counts a
	// non-topological event (ticket sale, etc.).
	Kind ChangeKind
	// Child names, for AddInternal, the child whose parent edge is split
	// (the new node is inserted between Node and Child).
	Child NodeID
}

// node is what a vertex knows of its edges. Its parent, its depth and
// whether it lives are in Tree.parent and Tree.depth, its children in
// Tree.lists, and its id is its index in Tree.nodes, where it sits by value:
// the zero node is an id that is not in the tree. The struct holds three
// 32-bit fields, 12 bytes an entry and 6 KiB a chunk of the table, which is
// why the port toward the parent is kept in 32 bits (see MaxPort); a slot or
// a list index counts nodes alive at once, which no memory holds 2^31 of.
type node struct {
	slot       int32 // position of this node in its parent's children
	parentPort int32 // within ±MaxPort
	list       int32 // index of the node's children in Tree.lists; 0 for none
}

// edge is one entry of a child list: a child and the port at the parent
// leading to it.
type edge struct {
	child NodeID
	port  int
}

// portView is the PortSet an assigner is handed: the ports in use at one
// node, which are the port to the parent, if the node has one, and the port
// to every child. The tree keeps one and points it at the node in question,
// so assigning a port allocates nothing.
type portView struct {
	edges      []edge
	parentPort int32
	hasParent  bool
}

// Has implements PortSet.
func (v *portView) Has(port int) bool {
	if v.hasParent && int(v.parentPort) == port {
		return true
	}
	for _, e := range v.edges {
		if e.port == port {
			return true
		}
	}
	return false
}

// Tree is a dynamic rooted tree. The root is created by New and is never
// deleted (the paper assumes the root survives the whole scenario).
type Tree struct {
	// nodes is indexed by NodeID. Its length is the next id to hand out, so
	// nodes.Len()-1 nodes ever existed (the quantity the paper calls U, when
	// bounded) and an entry from index 1 on that is not live is a deleted
	// node. Growing the table moves no entry, so a *node (get) stays good
	// across an allocNode; Restore installs another table.
	nodes Table[node]
	// lists holds the child lists, in insertion order as swap-removes leave
	// it: the live node n with children owns lists[n.list] and no other node
	// does. Index 0 is no list, and free holds the indices no node owns,
	// each an empty list keeping its backing array; a list is taken from
	// free before the table grows.
	lists Table[[]edge]
	free  []int32
	// parent and depth are indexed by NodeID like nodes and as long. They
	// hold the only copy of each live node's parent link (InvalidNode for
	// the root and for a node between unlink and link) and of its hop
	// distance from the root, maintained incrementally; a deleted id keeps
	// InvalidNode and depth -1, as index 0 does. A depth of -1 is what makes
	// an id not live: Contains reads it and nothing else.
	parent    []NodeID
	depth     []int32
	live      int // live entries of nodes
	root      NodeID
	ports     PortAssigner
	view      portView // the port set of the node being linked
	stack     []NodeID // recomputeDepths' and Subtree's scratch, empty between calls
	changeSeq uint64
	// generation counts the applied changes like changeSeq and the Restores
	// as well; no snapshot carries it.
	generation uint64

	// atDepth counts the live nodes at each depth and ends at the deepest
	// depth that holds any, so Height reads its length. It moves wherever a
	// depth is written; no snapshot carries it.
	atDepth []int32

	// express is indexed by NodeID like depth, follows from it and is written
	// wherever it is: the entry of id is its nearest proper ancestor at a
	// depth that is a multiple of expressStride, InvalidNode for the root
	// and for a deleted id. No snapshot carries it.
	express Table[NodeID]
	// expressEpoch moves when the link of an existing node may have: when a
	// subtree changes depth and on Restore, not when a leaf joins or leaves.
	expressEpoch uint64
}

// Option configures a Tree.
type Option func(*Tree)

// WithPortAssigner installs a custom port assigner. The default is an
// AdversarialPorts assigner seeded with 1.
func WithPortAssigner(p PortAssigner) Option {
	return func(t *Tree) { t.ports = p }
}

// New creates a tree containing only a root node and returns the tree and
// the root's id.
func New(opts ...Option) (*Tree, NodeID) {
	t := &Tree{
		parent: make([]NodeID, 1),
		depth:  []int32{-1},
		ports:  NewAdversarialPorts(1),
	}
	t.nodes.Grow(1) // index 0 is InvalidNode
	t.lists.Grow(1) // and no list
	t.express.Grow(1)
	for _, opt := range opts {
		opt(t)
	}
	t.root = t.allocNode(InvalidNode, 0)
	return t, t.root
}

// allocNode creates the node of the next id, recorded as a child-to-be of
// parent at the given depth but not yet linked.
func (t *Tree) allocNode(parent NodeID, depth int32) NodeID {
	id := NodeID(t.nodes.Len())
	if int(id) == cap(t.parent) {
		// The two slices only ever grow, and together. Doubling abandons,
		// over a tree's life, as many bytes as the final slices hold; the
		// 1.25× of append on a large slice abandons four times that, and a
		// daemon whose tree grows between two GC cycles carries it in its
		// RSS (grow-mix: 18.4 MiB against 17.1). They stay flat because the
		// climbs scan them; the nodes, never scanned by a climb, sit in a
		// table that abandons nothing.
		t.parent = slices.Grow(t.parent, int(id))
		t.depth = slices.Grow(t.depth, int(id))
	}
	t.nodes.Grow(int(id) + 1)
	t.parent = append(t.parent, parent)
	t.depth = append(t.depth, depth)
	if int(depth) == len(t.atDepth) {
		t.atDepth = append(t.atDepth, 0) // its parent is the deepest node
	}
	t.atDepth[depth]++
	t.express.Grow(int(id) + 1)
	*t.express.At(id) = t.expressVia(parent)
	t.live++
	return id
}

// trimDepths drops the empty depths at the bottom of atDepth.
func (t *Tree) trimDepths() {
	n := len(t.atDepth)
	for n > 0 && t.atDepth[n-1] == 0 {
		n--
	}
	t.atDepth = t.atDepth[:n]
}

// countDepths counts the live entries of depth at each depth, through the
// deepest.
func countDepths(depth []int32) []int32 {
	var at []int32
	for _, d := range depth {
		if d >= 0 {
			at = append(at, make([]int32, max(int(d)+1-len(at), 0))...)
			at[d]++
		}
	}
	return at
}

// linkSpan returns the hops from a node at the given depth, which is not the
// root's, up to its express link: the link is at the nearest smaller depth
// that is a multiple of expressStride, so no walk loads its depth.
func linkSpan(depth int) int {
	return (depth-1)%expressStride + 1
}

// expressVia returns the express link of a child of p: p itself when p is a
// stop, else p's own link; InvalidNode when there is no p.
func (t *Tree) expressVia(p NodeID) NodeID {
	if p != InvalidNode && t.depth[p]%expressStride == 0 {
		return p
	}
	return *t.express.At(p)
}

// get returns the live node id, or nil.
func (t *Tree) get(id NodeID) *node {
	if t.Contains(id) {
		return t.nodes.At(id)
	}
	return nil
}

// edges returns n's child list, nil for a leaf. It is good until the list
// next changes.
func (t *Tree) edges(n *node) []edge {
	if n.list == 0 {
		return nil
	}
	return *t.lists.At(NodeID(n.list))
}

// takeList gives n an empty child list: a freed one if there is one, else a
// new slot at the end of the table.
func (t *Tree) takeList(n *node) *[]edge {
	if last := len(t.free) - 1; last >= 0 {
		n.list, t.free = t.free[last], t.free[:last]
	} else {
		n.list = int32(t.lists.Len())
		t.lists.Grow(int(n.list) + 1)
	}
	return t.lists.At(NodeID(n.list))
}

// dropList frees n's child list, emptied and with its backing array kept
// for the next node that takes one.
func (t *Tree) dropList(n *node) {
	if n.list == 0 {
		return
	}
	l := t.lists.At(NodeID(n.list))
	*l = (*l)[:0]
	t.free = append(t.free, n.list)
	n.list = 0
}

// remove drops the unlinked node id from the tree.
func (t *Tree) remove(id NodeID) {
	n := t.nodes.At(id)
	t.dropList(n)
	*n = node{}
	t.atDepth[t.depth[id]]--
	t.trimDepths()
	t.depth[id] = -1
	*t.express.At(id) = InvalidNode
	t.live--
}

// notify counts one applied topological change.
func (t *Tree) notify() {
	t.changeSeq++
	t.generation++
}

// Root returns the root node id.
func (t *Tree) Root() NodeID {
	return t.root
}

// Size returns the current number of nodes.
func (t *Tree) Size() int {
	return t.live
}

// EverExisted returns the number of nodes ever created, including deleted
// ones. This is the paper's quantity U for the scenario so far.
func (t *Tree) EverExisted() int {
	return t.nodes.Len() - 1
}

// TableBytes returns the bytes of the node table and the child-list table:
// what the tree keeps for every id beside its parent, depth and express
// links, not counting the lists' backing arrays.
func (t *Tree) TableBytes() int {
	return t.nodes.Bytes() + t.lists.Bytes()
}

// Changes returns the number of topological changes applied so far.
func (t *Tree) Changes() uint64 {
	return t.changeSeq
}

// Generation returns a count that moves whenever the node set may have: on
// every applied topological change and on every Restore, which can bring
// back an earlier Changes value over different nodes. Whoever keeps state
// derived from the tree (a cached node list) compares two readings to learn
// whether it still holds.
func (t *Tree) Generation() uint64 {
	return t.generation
}

// Express returns the express link of id: its nearest proper ancestor at a
// depth that is a multiple of the tree's stride, or InvalidNode for the root
// and for an id that is not in the tree. Whoever counts marks per link for
// ClimbMarked reads it here.
func (t *Tree) Express(id NodeID) NodeID {
	if uint64(id) < uint64(t.express.Len()) {
		return *t.express.At(id)
	}
	return InvalidNode
}

// ExpressEpoch returns a count that moves whenever the express link of a
// node that already had one may have changed: when an edge split or an
// internal removal moved a subtree one level, and on every Restore. A leaf
// that joins gets a link and one that leaves loses its own, and neither
// moves the count. Whoever keeps counts per link compares two readings to
// learn whether they still hold.
func (t *Tree) ExpressEpoch() uint64 {
	return t.expressEpoch
}

// Contains reports whether id names a live node: one load from the depth
// slice.
func (t *Tree) Contains(id NodeID) bool {
	return uint64(id) < uint64(len(t.depth)) && t.depth[id] >= 0
}

// WasDeleted reports whether id names a node that existed and was deleted.
func (t *Tree) WasDeleted(id NodeID) bool {
	return id > InvalidNode && uint64(id) < uint64(len(t.depth)) && t.depth[id] < 0
}

// Parent returns the parent of id. The root's parent is InvalidNode.
func (t *Tree) Parent(id NodeID) (NodeID, error) {
	if !t.Contains(id) {
		return InvalidNode, fmt.Errorf("parent of %d: %w", id, ErrNoSuchNode)
	}
	return t.parent[id], nil
}

// Children returns a copy of id's children, in insertion order.
func (t *Tree) Children(id NodeID) ([]NodeID, error) {
	n := t.get(id)
	if n == nil {
		return nil, fmt.Errorf("children of %d: %w", id, ErrNoSuchNode)
	}
	edges := t.edges(n)
	out := make([]NodeID, len(edges))
	for i, e := range edges {
		out[i] = e.child
	}
	return out, nil
}

// ChildCount returns the number of children of id (the child-degree deg(v)
// used by the memory bound of Claim 4.8).
func (t *Tree) ChildCount(id NodeID) (int, error) {
	n := t.get(id)
	if n == nil {
		return 0, fmt.Errorf("child count of %d: %w", id, ErrNoSuchNode)
	}
	return len(t.edges(n)), nil
}

// Depth returns the hop distance from id to the root.
func (t *Tree) Depth(id NodeID) (int, error) {
	if !t.Contains(id) {
		return 0, fmt.Errorf("depth of %d: %w", id, ErrNoSuchNode)
	}
	return int(t.depth[id]), nil
}

// IsLeaf reports whether id is a live node with no children.
func (t *Tree) IsLeaf(id NodeID) bool {
	n := t.get(id)
	return n != nil && n.list == 0
}

// ParentPort returns the port number at id leading to its parent.
func (t *Tree) ParentPort(id NodeID) (int, error) {
	n := t.get(id)
	if n == nil {
		return 0, fmt.Errorf("parent port of %d: %w", id, ErrNoSuchNode)
	}
	if t.parent[id] == InvalidNode {
		return 0, fmt.Errorf("parent port of root %d: %w", id, ErrIsRoot)
	}
	return int(n.parentPort), nil
}

// ChildPort returns the port number at parent leading to child.
func (t *Tree) ChildPort(parent, child NodeID) (int, error) {
	p := t.get(parent)
	if p == nil {
		return 0, fmt.Errorf("child port at %d: %w", parent, ErrNoSuchNode)
	}
	c := t.get(child)
	if c == nil || t.parent[child] != parent {
		return 0, fmt.Errorf("child port %d->%d: %w", parent, child, ErrNotRelated)
	}
	return t.edges(p)[c.slot].port, nil
}

// ApplyAddLeaf adds a new leaf as a child of parent and returns its id.
func (t *Tree) ApplyAddLeaf(parent NodeID) (NodeID, error) {
	if !t.Contains(parent) {
		return InvalidNode, fmt.Errorf("add leaf under %d: %w", parent, ErrNoSuchNode)
	}
	id := t.allocNode(parent, t.depth[parent]+1)
	t.link(parent, id)
	t.notify()
	return id, nil
}

// ApplyRemoveLeaf removes the non-root leaf id.
func (t *Tree) ApplyRemoveLeaf(id NodeID) error {
	n := t.get(id)
	if n == nil {
		return fmt.Errorf("remove leaf %d: %w", id, ErrNoSuchNode)
	}
	if id == t.root {
		return fmt.Errorf("remove leaf %d: %w", id, ErrIsRoot)
	}
	if n.list != 0 {
		return fmt.Errorf("remove leaf %d: %w", id, ErrNotLeaf)
	}
	parent := t.parent[id]
	t.unlink(parent, id)
	t.remove(id)
	t.notify()
	return nil
}

// ApplyAddInternal splits the tree edge between child and its parent,
// inserting a new node u so that parent(child) = u and parent(u) is child's
// former parent. It returns the new node's id.
func (t *Tree) ApplyAddInternal(child NodeID) (NodeID, error) {
	if !t.Contains(child) {
		return InvalidNode, fmt.Errorf("add internal above %d: %w", child, ErrNoSuchNode)
	}
	if child == t.root {
		return InvalidNode, fmt.Errorf("add internal above root %d: %w", child, ErrIsRoot)
	}
	p := t.parent[child]
	u := t.allocNode(p, t.depth[p]+1)
	// Replace child with u in p's child list, then make child a child of u.
	t.unlink(p, child)
	t.link(p, u)
	t.link(u, child)
	t.recomputeDepths(child)
	t.notify()
	return u, nil
}

// ApplyRemoveInternal removes the non-root internal node id; its children
// become children of id's parent.
func (t *Tree) ApplyRemoveInternal(id NodeID) error {
	n := t.get(id)
	if n == nil {
		return fmt.Errorf("remove internal %d: %w", id, ErrNoSuchNode)
	}
	if id == t.root {
		return fmt.Errorf("remove internal %d: %w", id, ErrIsRoot)
	}
	if n.list == 0 {
		return fmt.Errorf("remove internal %d: %w", id, ErrNotInternal)
	}
	p := t.parent[id]
	// The children move over in order; n leaves whole, so they need no
	// unlinking from it one by one. They join p's list, which holds id and
	// so is not the one being walked.
	for _, e := range t.edges(n) {
		t.link(p, e.child)
		t.recomputeDepths(e.child)
	}
	t.unlink(p, id)
	t.remove(id)
	t.notify()
	return nil
}

// link makes c a child of p and assigns fresh ports on both endpoints: at c
// first, where the port c last used toward a parent still counts as taken,
// then at p. The depth of c is the caller's to set: a new node is allocated
// with it, a moved one heads a subtree for recomputeDepths.
func (t *Tree) link(p, c NodeID) {
	pn, cn := t.nodes.At(p), t.nodes.At(c)
	t.parent[c] = p
	toParent := t.assignPort(c, cn)
	if toParent < -MaxPort || toParent > MaxPort {
		panic(fmt.Sprintf("tree: port assigner drew %d for node %d, outside ±%d", toParent, c, MaxPort))
	}
	cn.parentPort = int32(toParent)
	port := t.assignPort(p, pn)
	list := t.lists.At(NodeID(pn.list))
	if pn.list == 0 {
		list = t.takeList(pn)
	}
	cn.slot = int32(len(*list))
	*list = append(*list, edge{c, port})
}

// assignPort draws a port for a new edge at node id that is not in use there.
func (t *Tree) assignPort(id NodeID, n *node) int {
	t.view = portView{edges: t.edges(n), parentPort: n.parentPort, hasParent: t.parent[id] != InvalidNode}
	return t.ports.Assign(id, &t.view)
}

// unlink removes c from p's child list; p's last child takes c's slot, and
// a list left empty is freed.
func (t *Tree) unlink(p, c NodeID) {
	pn, cn := t.nodes.At(p), t.nodes.At(c)
	list := t.lists.At(NodeID(pn.list))
	edges := *list
	last := int32(len(edges) - 1)
	if cn.slot != last {
		moved := edges[last]
		t.nodes.At(moved.child).slot = cn.slot
		edges[cn.slot] = moved
	}
	*list = edges[:last]
	if last == 0 {
		t.dropList(pn)
	}
	t.parent[c] = InvalidNode
}

// recomputeDepths refreshes cached depths, and the express links that follow
// from them, in the subtree rooted at c, parents before children, over a
// stack the tree keeps from one call to the next.
func (t *Tree) recomputeDepths(c NodeID) {
	t.expressEpoch++
	// The subtree moves one level down or up, so one more depth at the
	// bottom holds every new depth; trimDepths drops it if it stays empty.
	t.atDepth = append(t.atDepth, 0)
	atDepth := t.atDepth
	stack := append(t.stack[:0], c)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		p := t.parent[id]
		old, d := t.depth[id], t.depth[p]+1
		t.depth[id] = d
		atDepth[old]--
		atDepth[d]++
		*t.express.At(id) = t.expressVia(p)
		for _, e := range t.edges(t.nodes.At(id)) {
			stack = append(stack, e.child)
		}
	}
	t.stack = stack
	t.trimDepths()
}

// Distance returns the hop distance between u and an ancestor w of u.
// It returns an error if w is not an ancestor of u.
func (t *Tree) Distance(u, w NodeID) (int, error) {
	return t.distance(u, w)
}

func (t *Tree) distance(u, w NodeID) (int, error) {
	if !t.Contains(u) {
		return 0, fmt.Errorf("distance from %d: %w", u, ErrNoSuchNode)
	}
	if !t.Contains(w) {
		return 0, fmt.Errorf("distance to %d: %w", w, ErrNoSuchNode)
	}
	d := int(t.depth[u] - t.depth[w])
	if d < 0 || t.ancestor(u, d) != w {
		return 0, fmt.Errorf("distance %d->%d: %w", u, w, ErrNotRelated)
	}
	return d, nil
}

// ancestor returns the ancestor of the live node u at hop distance dist,
// which must not exceed u's depth: by express link from stop to stop while
// the next stop is no farther than that, then hop by hop, which is
// O(dist/expressStride + expressStride) loads.
func (t *Tree) ancestor(u NodeID, dist int) NodeID {
	express := t.express
	for at := int(t.depth[u]); dist > 0; {
		step := linkSpan(at)
		if step > dist {
			break
		}
		u, at, dist = *express.At(u), at-step, dist-step
	}
	parent := t.parent
	for ; dist > 0; dist-- {
		u = parent[u]
	}
	return u
}

// IsAncestor reports whether a is an ancestor of d (every node is its own
// ancestor, as in the paper).
func (t *Tree) IsAncestor(a, d NodeID) (bool, error) {
	if !t.Contains(a) {
		return false, fmt.Errorf("ancestor test %d: %w", a, ErrNoSuchNode)
	}
	if !t.Contains(d) {
		return false, fmt.Errorf("ancestor test %d: %w", d, ErrNoSuchNode)
	}
	up := int(t.depth[d] - t.depth[a])
	return up >= 0 && t.ancestor(d, up) == a, nil
}

// Ancestor returns the ancestor of u at hop distance dist (Ancestor(u, 0)
// is u itself). It returns an error if dist exceeds u's depth.
func (t *Tree) Ancestor(u NodeID, dist int) (NodeID, error) {
	if !t.Contains(u) {
		return InvalidNode, fmt.Errorf("ancestor of %d: %w", u, ErrNoSuchNode)
	}
	if dist < 0 || dist > int(t.depth[u]) {
		return InvalidNode, fmt.Errorf("ancestor of %d at distance %d (depth %d): %w",
			u, dist, t.depth[u], ErrNotRelated)
	}
	return t.ancestor(u, dist), nil
}

// AppendAncestors appends to buf the ancestors of u at the given hop
// distances, which must ascend, and returns the extended slice: one walk
// from u to the farthest of them finds them all, where a call to Ancestor
// for each would start from u again. It returns an error if a distance is
// negative, smaller than the one before it, or exceeds u's depth.
func (t *Tree) AppendAncestors(u NodeID, dists []int, buf []NodeID) ([]NodeID, error) {
	if !t.Contains(u) {
		return nil, fmt.Errorf("ancestors of %d: %w", u, ErrNoSuchNode)
	}
	at, w := 0, u
	for _, dist := range dists {
		if dist < at || dist > int(t.depth[u]) {
			return nil, fmt.Errorf("ancestor of %d at distance %d (depth %d, previous distance %d): %w",
				u, dist, t.depth[u], at, ErrNotRelated)
		}
		w = t.ancestor(w, dist-at)
		at = dist
		buf = append(buf, w)
	}
	return buf, nil
}

// Climb visits u and then its ancestors, nearest first, until visit
// returns true or the root has been visited, and returns the node it
// stopped at with its hop distance from u. A hop is one load from the parent
// slice. visit runs inside the walk: it may read and write the caller's own
// state, and must not call back into the tree.
func (t *Tree) Climb(u NodeID, visit func(id NodeID, dist int) bool) (NodeID, int, error) {
	if !t.Contains(u) {
		return InvalidNode, 0, fmt.Errorf("climb from %d: %w", u, ErrNoSuchNode)
	}
	parent := t.parent
	for d := 0; ; d++ {
		if visit(u, d) {
			return u, d, nil
		}
		p := parent[u]
		if p == InvalidNode {
			return u, d, nil
		}
		u = p
	}
}

// ClimbMarked is Climb with the uninteresting nodes skipped inside the walk.
// A mark counts at some distances only. The distances from u fall into
// bands, which ascend: band 0 up to bands[0], band b on (bands[b-1],
// bands[b]], and band len(bands) beyond the last bound, so nil bands make one
// band of every distance. Bit b of a mark, bit 63 for every band from 63 on,
// marks a node only where its distance lies in band b: visit is called only
// at nodes whose entry in marks, a slice indexed by NodeID, has the bit of the
// node's band, and an id beyond the slice counts as unmarked. A hop past an
// unmarked node is then two loads from two dense slices and no call.
//
// blocks, when not nil, lets the climb skip whole stretches of unmarked
// nodes. It is indexed by NodeID like marks, and blocks[r] is a row of eight
// byte counters, one a band and the top one for every band from 7 on: the
// caller keeps counter b of the row at no less than the number of ids whose
// Express link is r and whose mark has bit b (the top one: any bit from 7
// on), and a stop beyond the slice counts none. Where the counters of the
// bands the stretch up to the stop above lies in (one or two, for bands at
// least a block wide) are zero, nothing there is marked for its distance and
// the climb takes the link; where one is not, the climb walks to the stop hop
// by hop. Either way the same nodes are visited at the same distances as with
// nil blocks, in one step per clean block and one block of hops per marked
// one. A count is per stop, not per path, so a mark on a sibling branch costs
// a walk and never a missed visit, and a counter that stays at 255 once it
// gets there is as good as an exact one: only a zero skips.
//
// The climb ends where visit returns true or else at the root, marked or
// not, and returns that node with its hop distance from u. visit runs inside
// the walk: it reads the caller's own state, writes neither marks nor
// blocks, and must not call back into the tree.
func (t *Tree) ClimbMarked(u NodeID, bands []int, marks, blocks []uint64, visit func(id NodeID, dist int) bool) (NodeID, int, error) {
	if !t.Contains(u) {
		return InvalidNode, 0, fmt.Errorf("climb from %d: %w", u, ErrNoSuchNode)
	}
	parent, express, top := t.parent, t.express, int(t.depth[u])
	// band is the band of d, end the last distance in it, and bit and lane
	// its mark bit and its counter in a row. walk counts the hops left to the
	// stop of the block being walked; at zero the climb stands where it
	// started or on a stop, top-d hops below the root, and reads the link of
	// that node.
	band, end := 0, bandEnd(bands, 0)
	bit, lane := uint64(1), uint64(0xff)
	for d, walk := 0, 0; ; {
		for d > end {
			band++
			end = bandEnd(bands, band)
			bit, lane = 1<<min(band, 63), 0xff<<(8*min(band, 7))
		}
		if uint64(u) < uint64(len(marks)) && marks[u]&bit != 0 && visit(u, d) {
			return u, d, nil
		}
		p := parent[u]
		if p == InvalidNode {
			return u, d, nil
		}
		if walk == 0 {
			r := *express.At(u)
			walk = linkSpan(top - d)
			// The link passes the distances d+1 to d+walk-1, which mostly lie
			// in band; with one of them the stop is the parent, and the link
			// is the hop.
			if blocks != nil && walk > 1 {
				lanes := lane
				if d+walk-1 > end {
					lanes = bandLanes(bands, band, end, d+1, d+walk-1)
				}
				if uint64(r) >= uint64(len(blocks)) || blocks[r]&lanes == 0 {
					u, d, walk = r, d+walk, 0
					continue
				}
			}
		}
		u, d, walk = p, d+1, walk-1
	}
}

// bandEnd returns the last distance in band b.
func bandEnd(bands []int, b int) int {
	if b < len(bands) {
		return bands[b]
	}
	return math.MaxInt
}

// bandLanes returns the counters of a block row that count for the distances
// first to last: the bytes of the bands they lie in, every band from 7 on in
// the top byte. The search for those bands starts at band b, which ends at
// end and holds first or lies below it.
func bandLanes(bands []int, b, end, first, last int) uint64 {
	for first > end {
		b++
		end = bandEnd(bands, b)
	}
	lo := b
	for last > end {
		b++
		end = bandEnd(bands, b)
	}
	from := ^uint64(0) << (8 * min(lo, 7)) // byte lo and up
	past := ^uint64(0) << (8 * min(b, 7)) << 8
	return from &^ past
}

// PathToRoot returns the node ids from u (inclusive) up to the root
// (inclusive).
func (t *Tree) PathToRoot(u NodeID) ([]NodeID, error) {
	return t.AppendPathToRoot(u, nil)
}

// AppendPathToRoot appends the node ids from u (inclusive) up to the root
// (inclusive) to buf and returns the extended slice. Passing a buffer with
// spare capacity lets hot paths (the controller's filler search) walk the
// tree without allocating.
func (t *Tree) AppendPathToRoot(u NodeID, buf []NodeID) ([]NodeID, error) {
	if !t.Contains(u) {
		return nil, fmt.Errorf("path to root from %d: %w", u, ErrNoSuchNode)
	}
	return t.appendPath(u, int(t.depth[u]), buf), nil
}

// appendPath appends u and its d nearest ancestors to buf, bottom-up.
func (t *Tree) appendPath(u NodeID, d int, buf []NodeID) []NodeID {
	buf = slices.Grow(buf, d+1)
	parent := t.parent
	for ; d >= 0; d-- {
		buf = append(buf, u)
		u = parent[u]
	}
	return buf
}

// PathBetween returns the node ids from u (inclusive) up to its ancestor w
// (inclusive).
func (t *Tree) PathBetween(u, w NodeID) ([]NodeID, error) {
	return t.AppendPathBetween(u, w, nil)
}

// AppendPathBetween appends the node ids from u (inclusive) up to its
// ancestor w (inclusive) to buf and returns the extended slice, reusing
// buf's capacity when it suffices.
func (t *Tree) AppendPathBetween(u, w NodeID, buf []NodeID) ([]NodeID, error) {
	d, err := t.distance(u, w)
	if err != nil {
		return nil, err
	}
	return t.appendPath(u, d, buf), nil
}

// Nodes returns the ids of all live nodes in ascending order. The order is
// part of the contract: seeded generators index into it.
func (t *Tree) Nodes() []NodeID {
	return slices.AppendSeq(make([]NodeID, 0, t.live), t.All())
}

// All visits the ids of all live nodes in ascending order, the order of
// Nodes, without building the list. The loop body may read the tree and must
// not change it.
func (t *Tree) All() iter.Seq[NodeID] {
	return func(yield func(NodeID) bool) {
		for id, d := range t.depth {
			if d >= 0 && !yield(NodeID(id)) {
				return
			}
		}
	}
}

// Leaves returns the ids of all current leaves in ascending order.
func (t *Tree) Leaves() []NodeID {
	var out []NodeID
	for id, n := range t.nodes.All() {
		if t.depth[id] >= 0 && n.list == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Validate checks structural consistency of the tree: parent/child symmetry,
// depth caching, port uniqueness, acyclicity and full reachability from the
// root, and returns the first inconsistency found. Restore holds every staged
// tree to it before committing, so it must keep checking everything a
// snapshot can get wrong.
func (t *Tree) Validate() error {
	if len(t.parent) != t.nodes.Len() || len(t.depth) != t.nodes.Len() || t.express.Len() != t.nodes.Len() {
		return fmt.Errorf("validate: %d node slots but %d parent links, %d depths and %d express links",
			t.nodes.Len(), len(t.parent), len(t.depth), t.express.Len())
	}
	if p := t.parent[t.root]; p != InvalidNode {
		return fmt.Errorf("validate: root %d has parent %d", t.root, p)
	}
	if t.depth[InvalidNode] != -1 {
		return fmt.Errorf("validate: id 0 has depth %d, not -1", t.depth[InvalidNode])
	}
	for id, n := range t.nodes.All() {
		if t.depth[id] >= 0 {
			continue
		}
		if t.parent[id] != InvalidNode || t.depth[id] != -1 || *t.express.At(id) != InvalidNode {
			return fmt.Errorf("validate: dead id %d keeps parent %d, depth %d and express link %d",
				id, t.parent[id], t.depth[id], *t.express.At(id))
		}
		if *n != (node{}) {
			return fmt.Errorf("validate: dead id %d keeps edges in its table entry", id)
		}
	}
	// Every list slot is owned by one live node, or free and empty.
	owner := make(map[int32]NodeID, t.lists.Len())
	for _, l := range t.free {
		if _, dup := owner[l]; dup || l <= 0 || int(l) >= t.lists.Len() || len(*t.lists.At(NodeID(l))) != 0 {
			return fmt.Errorf("validate: free list slot %d is out of range, listed twice or not empty", l)
		}
		owner[l] = InvalidNode
	}
	seen := make(map[NodeID]struct{}, t.live)
	type frame struct {
		id    NodeID
		depth int
	}
	stack := []frame{{t.root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, dup := seen[f.id]; dup {
			return fmt.Errorf("validate: node %d reachable twice", f.id)
		}
		seen[f.id] = struct{}{}
		n := t.get(f.id)
		if n == nil {
			return fmt.Errorf("validate: reachable node %d missing: %w", f.id, ErrNoSuchNode)
		}
		var edges []edge
		if n.list != 0 {
			if _, taken := owner[n.list]; taken || n.list < 0 || int(n.list) >= t.lists.Len() {
				return fmt.Errorf("validate: node %d holds list slot %d, out of range or not its own", f.id, n.list)
			}
			if edges = t.edges(n); len(edges) == 0 {
				return fmt.Errorf("validate: node %d holds an empty list", f.id)
			}
			owner[n.list] = f.id
		}
		if int(t.depth[f.id]) != f.depth {
			return fmt.Errorf("validate: node %d cached depth %d, actual %d", f.id, t.depth[f.id], f.depth)
		}
		if want := t.expressVia(t.parent[f.id]); *t.express.At(f.id) != want {
			return fmt.Errorf("validate: node %d at depth %d has express link %d, its parent gives %d",
				f.id, f.depth, *t.express.At(f.id), want)
		}
		ports := make(map[int]struct{}, len(edges)+1)
		if t.parent[f.id] != InvalidNode {
			ports[int(n.parentPort)] = struct{}{}
		}
		for i, e := range edges {
			cid := e.child
			c := t.get(cid)
			if c == nil {
				return fmt.Errorf("validate: child %d of %d missing: %w", cid, f.id, ErrNoSuchNode)
			}
			if t.parent[cid] != f.id {
				return fmt.Errorf("validate: child %d of %d has parent %d", cid, f.id, t.parent[cid])
			}
			if int(c.slot) != i {
				return fmt.Errorf("validate: slot of %d under %d is stale", cid, f.id)
			}
			port := e.port
			if _, dup := ports[port]; dup {
				return fmt.Errorf("validate: duplicate port %d at node %d", port, f.id)
			}
			ports[port] = struct{}{}
			stack = append(stack, frame{cid, f.depth + 1})
		}
	}
	if len(seen) != t.live {
		return fmt.Errorf("validate: %d nodes reachable, %d stored", len(seen), t.live)
	}
	if len(owner) != t.lists.Len()-1 {
		return fmt.Errorf("validate: %d list slots, %d owned or free", t.lists.Len()-1, len(owner))
	}
	if atDepth := countDepths(t.depth); !slices.Equal(atDepth, t.atDepth) {
		return fmt.Errorf("validate: live nodes at depths 0..%d, but counted at 0..%d or counted otherwise",
			len(atDepth)-1, len(t.atDepth)-1)
	}
	return nil
}
